package itemsets

import (
	"standout/internal/bitvec"
)

// Apriori computes all frequent itemsets with support ≥ minSup using the
// classic level-wise algorithm of Agrawal & Srikant [2]: level k candidates
// are joins of level k−1 frequent itemsets sharing a (k−2)-prefix, pruned by
// the requirement that all (k−1)-subsets be frequent, then counted against
// the table.
//
// As §IV.C of the paper observes, level-wise mining collapses on dense
// tables (such as complemented query logs) because candidate sets explode;
// Apriori is provided as a baseline and verification oracle for sparse
// inputs, and MaxLevel allows capping the explosion in ablation experiments.
func (m *Miner) Apriori(minSup int) []ItemsetCount {
	return m.AprioriCapped(minSup, 0)
}

// AprioriCapped is Apriori stopped after level maxLevel (0 means no cap).
func (m *Miner) AprioriCapped(minSup, maxLevel int) []ItemsetCount {
	if minSup < 1 {
		minSup = 1
	}
	var out []ItemsetCount

	// Level 1.
	type entry struct {
		items   []int // sorted item indices
		support int
	}
	var level []entry
	for j, sup := range m.singletonSupports() {
		if sup >= minSup {
			level = append(level, entry{items: []int{j}, support: sup})
		}
	}
	emit := func(e entry) {
		out = append(out, ItemsetCount{Items: bitvec.FromIndices(m.width, e.items...), Support: e.support})
	}
	for _, e := range level {
		emit(e)
	}

	// Scratch reused by every candidate: most candidates are rejected, so
	// only a frequent one gets its own copy.
	var cand []int
	var key []byte
	for k := 2; len(level) > 0 && (maxLevel == 0 || k <= maxLevel); k++ {
		// Index of frequent (k−1)-itemsets for subset pruning.
		freqPrev := make(map[string]bool, len(level))
		for _, e := range level {
			key = appendItemsKey(key[:0], e.items, -1)
			freqPrev[string(key)] = true
		}

		var next []entry
		// Join step: pairs sharing the first k−2 items. level is generated in
		// lexicographic order, so equal-prefix entries are adjacent.
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				a, b := level[i].items, level[j].items
				if !samePrefix(a, b) {
					break
				}
				cand = append(append(cand[:0], a...), b[len(b)-1])
				if !allSubsetsFrequent(cand, freqPrev, &key) {
					continue
				}
				if sup := m.supportOf(cand); sup >= minSup {
					next = append(next, entry{items: append([]int(nil), cand...), support: sup})
				}
			}
		}
		level = next
		for _, e := range level {
			emit(e)
		}
	}
	return out
}

// samePrefix reports whether two sorted k-item slices agree on all but the
// last element.
func samePrefix(a, b []int) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent applies the Apriori pruning rule: every (k−1)-subset of
// cand must be frequent. Subsets formed by dropping the last two positions
// are covered by the join itself, so only the rest need checking — checking
// all is simpler and still linear in k. key is scratch for the subset keys.
func allSubsetsFrequent(cand []int, freqPrev map[string]bool, key *[]byte) bool {
	for drop := range cand {
		*key = appendItemsKey((*key)[:0], cand, drop)
		if !freqPrev[string(*key)] {
			return false
		}
	}
	return true
}

// appendItemsKey appends the map key of a sorted item slice, leaving out
// position skip (-1 keeps every item), to buf.
func appendItemsKey(buf []byte, items []int, skip int) []byte {
	for i, it := range items {
		if i != skip {
			buf = append(buf, byte(it), byte(it>>8))
		}
	}
	return buf
}
