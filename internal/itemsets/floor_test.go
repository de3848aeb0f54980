package itemsets

import (
	"context"
	"math/rand"
	"testing"
)

// FuzzMaximalDFSFloor holds the floored DFS to its contract: it returns the
// unfloored MaximalDFS list filtered to sets of at least floor items — the
// same sets, supports and order — on dense or sparse tables, weighted or
// not, mined by 1 or 4 workers.
func FuzzMaximalDFSFloor(f *testing.F) {
	f.Add(int64(1), true, false, uint8(20), uint8(8), uint8(1), uint8(6), false)
	f.Add(int64(2), false, false, uint8(30), uint8(10), uint8(2), uint8(2), true)
	f.Add(int64(3), true, true, uint8(12), uint8(12), uint8(3), uint8(9), true)
	f.Add(int64(4), false, true, uint8(5), uint8(4), uint8(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, dense, weighted bool, nrows, ncols, sup, floorIn uint8, parallel bool) {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + int(nrows%40)
		cols := 1 + int(ncols%14)
		density := 0.05 + 0.35*r.Float64()
		if dense {
			density = 0.6 + 0.35*r.Float64()
		}
		tab := randomTable(r, rows, cols, density)
		var weights []int
		if weighted {
			for range tab.Rows {
				weights = append(weights, 1+r.Intn(4))
			}
		}
		m := NewMinerWeighted(tab, weights)
		minSup := 1 + int(sup)%(m.TotalWeight()+1)
		floor := int(floorIn) % (cols + 2)
		workers := 1
		if parallel {
			workers = 4
		}

		var want []ItemsetCount
		for _, s := range m.MaximalDFS(minSup) {
			if s.Items.Count() >= floor {
				want = append(want, s)
			}
		}
		got, err := m.MaximalDFSFloorContext(context.Background(), minSup, floor, workers)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := listFingerprint(got), listFingerprint(want); g != w {
			t.Fatalf("minSup %d floor %d workers %d:\nfloored: %s\nfiltered: %s", minSup, floor, workers, g, w)
		}
	})
}
