// Package itemsets implements the frequent-itemset mining substrate of the
// paper's MaxFreqItemSets-SOC-CB-QL algorithm (§IV.C): level-wise Apriori,
// FP-Growth, an exact maximal-frequent-itemset DFS miner used as a
// verification oracle, the bottom-up random walk of Gunopulos et al. [11],
// and the paper's two-phase (down/up) random walk tuned for the dense
// complemented query logs the reduction produces, with the Good–Turing-style
// stopping rule of §IV.C.
//
// Transactions are rows of a dataset.Table; an itemset is a bitvec.Vector
// over the table's attributes; support(I) is the number of rows that are
// supersets of I.
package itemsets

import (
	"fmt"
	"math/bits"
	"sort"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// ItemsetCount pairs an itemset with its support in the mined table.
type ItemsetCount struct {
	Items   bitvec.Vector
	Support int
}

// Miner holds a vertical (column bitmap) representation of a Boolean table
// for fast support counting. A miner may be weighted (NewMinerWeighted):
// each transaction then carries a positive integer multiplicity and every
// support is the total weight of the supporting rows, so support thresholds
// are expressed in weight units. An unweighted miner is the weights-all-1
// special case and counts rows exactly as before.
type Miner struct {
	width       int
	nrows       int
	words       int
	cols        [][]uint64 // cols[item][w]: bitmap of rows containing item
	weights     []int      // per-row multiplicities; nil means all 1
	totalWeight int        // Σ weights, == nrows when unweighted
}

// NewMiner builds the vertical representation of the table.
func NewMiner(tab *dataset.Table) *Miner {
	return NewMinerWeighted(tab, nil)
}

// NewMinerWeighted builds the vertical representation of a weighted table:
// weights[r] is row r's multiplicity (each must be ≥ 1 so weighted support
// equality still certifies rowset equality, keeping parent-equivalence
// pruning sound). nil weights mean all rows count once.
func NewMinerWeighted(tab *dataset.Table, weights []int) *Miner {
	width := tab.Width()
	nrows := tab.Size()
	words := (nrows + 63) / 64
	m := &Miner{width: width, nrows: nrows, words: words, cols: make([][]uint64, width)}
	for j := 0; j < width; j++ {
		m.cols[j] = make([]uint64, words)
	}
	for r, row := range tab.Rows {
		for _, j := range row.Ones() {
			m.cols[j][r/64] |= 1 << (uint(r) % 64)
		}
	}
	m.totalWeight = nrows
	if weights != nil {
		if len(weights) != nrows {
			panic(fmt.Sprintf("itemsets: %d weights for %d rows", len(weights), nrows))
		}
		m.weights = weights
		m.totalWeight = 0
		for r, w := range weights {
			if w < 1 {
				panic(fmt.Sprintf("itemsets: weight %d at row %d, must be ≥ 1", w, r))
			}
			m.totalWeight += w
		}
	}
	return m
}

// Width returns the number of items (attributes).
func (m *Miner) Width() int { return m.width }

// NumRows returns the number of transactions.
func (m *Miner) NumRows() int { return m.nrows }

// TotalWeight returns the total row weight — the empty itemset's support.
func (m *Miner) TotalWeight() int { return m.totalWeight }

// pop returns the support of a rowset: its popcount when unweighted, the sum
// of its rows' weights otherwise.
func (m *Miner) pop(rs []uint64) int {
	if m.weights == nil {
		return popcount(rs)
	}
	n := 0
	for w, word := range rs {
		for ; word != 0; word &= word - 1 {
			n += m.weights[w*64+bits.TrailingZeros64(word)]
		}
	}
	return n
}

// and returns the support of rs ∩ col without materializing it.
func (m *Miner) and(rs, col []uint64) int {
	if m.weights == nil {
		return countAnd(rs, col)
	}
	n := 0
	for w := range rs {
		for word := rs[w] & col[w]; word != 0; word &= word - 1 {
			n += m.weights[w*64+bits.TrailingZeros64(word)]
		}
	}
	return n
}

// Support returns the total weight of rows that contain every item of items
// (the row count when the miner is unweighted).
func (m *Miner) Support(items bitvec.Vector) int {
	if items.Width() != m.width {
		panic(fmt.Sprintf("itemsets: itemset width %d, miner width %d", items.Width(), m.width))
	}
	return m.supportOf(items.Ones())
}

// supportOf is Support over the item indices ones.
func (m *Miner) supportOf(ones []int) int {
	if len(ones) == 0 {
		return m.totalWeight
	}
	n := 0
	first := m.cols[ones[0]]
	for w := 0; w < m.words; w++ {
		acc := first[w]
		for _, j := range ones[1:] {
			acc &= m.cols[j][w]
			if acc == 0 {
				break
			}
		}
		if m.weights == nil {
			n += bits.OnesCount64(acc)
		} else {
			for ; acc != 0; acc &= acc - 1 {
				n += m.weights[w*64+bits.TrailingZeros64(acc)]
			}
		}
	}
	return n
}

// rowset operations: a rowset is a bitmap over transactions.

func (m *Miner) fullRowset() []uint64 {
	rs := make([]uint64, m.words)
	for w := range rs {
		rs[w] = ^uint64(0)
	}
	if m.nrows%64 != 0 && m.words > 0 {
		rs[m.words-1] = (1 << (uint(m.nrows) % 64)) - 1
	}
	return rs
}

// rowsetOf materializes the set of rows supporting items.
func (m *Miner) rowsetOf(items bitvec.Vector) []uint64 {
	rs := m.fullRowset()
	for _, j := range items.Ones() {
		intersect(rs, m.cols[j])
	}
	return rs
}

func intersect(dst, src []uint64) {
	for w := range dst {
		dst[w] &= src[w]
	}
}

func popcount(rs []uint64) int {
	n := 0
	for _, w := range rs {
		n += bits.OnesCount64(w)
	}
	return n
}

// countAnd returns |rs ∩ col| without allocating.
func countAnd(rs, col []uint64) int {
	n := 0
	for w := range rs {
		n += bits.OnesCount64(rs[w] & col[w])
	}
	return n
}

// itemOrder returns item indices sorted by the given supports ascending
// (fail-first order for DFS miners), ties by index.
func itemOrder(supports []int) []int {
	idx := make([]int, len(supports))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return supports[idx[a]] < supports[idx[b]] })
	return idx
}

// singletonSupports returns the (weighted) support of each single item.
func (m *Miner) singletonSupports() []int {
	out := make([]int, m.width)
	for j := 0; j < m.width; j++ {
		out[j] = m.pop(m.cols[j])
	}
	return out
}

// SortBySize orders itemsets by descending size then descending support,
// ties by string form; useful for deterministic test assertions and output.
func SortBySize(sets []ItemsetCount) {
	sort.Slice(sets, func(a, b int) bool {
		ca, cb := sets[a].Items.Count(), sets[b].Items.Count()
		if ca != cb {
			return ca > cb
		}
		if sets[a].Support != sets[b].Support {
			return sets[a].Support > sets[b].Support
		}
		return sets[a].Items.String() < sets[b].Items.String()
	})
}
