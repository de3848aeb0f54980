package index

import (
	"fmt"

	"standout/internal/dataset"
)

// Segmented is an incrementally extensible index over one query log: an
// ordered list of immutable Index segments, each built over a contiguous
// window of the log, jointly covering queries [0, NumQueries). An append to
// the log extends the index by building one small delta segment over only
// the new queries — O(appended) work — instead of rebuilding over the whole
// log, and size-tiered compaction (CompactTiered) merges trailing segments
// back together so the segment count stays O(log S) under any append
// schedule.
//
// Exactness composes additively: a query index qi of the log lives in
// exactly one segment (the one whose window contains it), every counting
// kernel of a segment counts only its own window, and the sum over segments
// therefore equals the count a monolithic index would return. The
// differential suite in internal/core pins bit-identical solver answers
// between the two; FuzzSegmentMerge pins that any append/compact schedule
// scores identically to a one-shot build.
//
// A Segmented value is immutable and safe for unbounded concurrent use:
// Extend and the compaction methods return new values, structurally sharing
// every untouched segment, so a serving layer can swap generations under
// load while in-flight solves keep scoring the one they started with.
type Segmented struct {
	log  *dataset.QueryLog
	segs []*Index
	offs []int // offs[i]: global index of segs[i]'s first query

	nq          int
	width       int
	version     uint64
	mode        Mode
	totalWeight int

	// Rolling fingerprint: hstate is the pre-finalized fold of queries
	// [0, nq), extended in O(appended) by Extend; fp is its finalization,
	// always equal to log.Fingerprint() at (version, nq).
	hstate uint64
	fp     uint64

	// freq aggregates the segments' weighted attribute frequencies.
	freq []int
}

// BuildSegmented indexes the log as a single base segment. opts as BuildWith.
func BuildSegmented(log *dataset.QueryLog, opts Options) (*Segmented, error) {
	if err := log.Validate(); err != nil {
		return nil, err
	}
	version, nq := log.Version(), log.Size()
	base, err := BuildWith(log.Window(0, nq), opts)
	if err != nil {
		return nil, err
	}
	h := log.FoldFingerprint(dataset.FingerprintSeed(), 0, nq)
	s := &Segmented{
		log:         log,
		segs:        []*Index{base},
		offs:        []int{0},
		nq:          nq,
		width:       log.Width(),
		version:     version,
		mode:        opts.Mode,
		totalWeight: base.TotalWeight(),
		hstate:      h,
		fp:          dataset.FinishFingerprint(h, nq, log.Width()),
	}
	s.refreshFreq()
	return s, nil
}

// Extend returns a new Segmented covering log's current contents by
// appending one delta segment over the queries beyond s's coverage. The
// caller must have proven that log's first NumQueries entries are exactly
// the contents s indexed — dataset.QueryLog.ExtendsFrom against s's
// (Version, NumQueries) snapshot is that proof; core.PrepareLogFrom performs
// it. Extending by zero queries returns a value equivalent to s retargeted
// at log. Extend never merges; run CompactTiered (or Compact) afterwards to
// bound the segment count.
func (s *Segmented) Extend(log *dataset.QueryLog) (*Segmented, error) {
	nq := log.Size()
	if nq < s.nq {
		return nil, fmt.Errorf("index: segmented extend: log shrank (%d < %d)", nq, s.nq)
	}
	if log.Width() != s.width {
		return nil, fmt.Errorf("index: segmented extend: width %d, index width %d", log.Width(), s.width)
	}
	version := log.Version()
	out := &Segmented{
		log:     log,
		segs:    s.segs,
		offs:    s.offs,
		nq:      nq,
		width:   s.width,
		version: version,
		mode:    s.mode,
		hstate:  log.FoldFingerprint(s.hstate, s.nq, nq),
	}
	out.fp = dataset.FinishFingerprint(out.hstate, nq, s.width)
	if nq > s.nq {
		delta, err := BuildWith(log.Window(s.nq, nq), Options{Mode: s.mode})
		if err != nil {
			return nil, err
		}
		out.segs = append(append([]*Index(nil), s.segs...), delta)
		out.offs = append(append([]int(nil), s.offs...), s.nq)
	}
	for _, seg := range out.segs {
		out.totalWeight += seg.TotalWeight()
	}
	out.refreshFreq()
	return out, nil
}

// CompactTiered applies the size-tiered merge policy: the trailing run of
// segments is merged (rebuilt as one segment over the combined window)
// cascading while each preceding segment is no larger than the combined
// tail. The resulting invariant — every segment strictly larger than the one
// after it — keeps the segment count logarithmic under single-query appends
// (the merge schedule is a binary counter: amortized O(log S) merge work per
// append) and bounded by the number of distinct batch sizes otherwise.
// Returns s unchanged (merged == 0) when the policy is already satisfied.
func (s *Segmented) CompactTiered() (*Segmented, int, error) {
	n := len(s.segs)
	lo := n - 1
	for lo > 0 && s.segs[lo-1].NumQueries() <= s.nq-s.offs[lo] {
		lo--
	}
	if lo == n-1 {
		return s, 0, nil
	}
	return s.mergeFrom(lo, n-1-lo)
}

// Compact merges every segment into one base segment, the fully-amortized
// form equivalent to a fresh BuildSegmented of the current contents.
func (s *Segmented) Compact() (*Segmented, error) {
	if len(s.segs) <= 1 {
		return s, nil
	}
	out, _, err := s.mergeFrom(0, len(s.segs)-1)
	return out, err
}

// mergeFrom rebuilds segments [lo, len) as one segment over their combined
// window, sharing the untouched prefix.
func (s *Segmented) mergeFrom(lo, merged int) (*Segmented, int, error) {
	tail, err := BuildWith(s.log.Window(s.offs[lo], s.nq), Options{Mode: s.mode})
	if err != nil {
		return nil, 0, err
	}
	out := *s
	out.segs = append(append([]*Index(nil), s.segs[:lo]...), tail)
	out.offs = append(append([]int(nil), s.offs[:lo]...), s.offs[lo])
	out.refreshFreq()
	return &out, merged, nil
}

// refreshFreq recomputes the aggregated weighted attribute frequencies.
func (s *Segmented) refreshFreq() {
	s.freq = make([]int, s.width)
	for _, seg := range s.segs {
		for a, f := range seg.AttrFrequencies() {
			s.freq[a] += f
		}
	}
}

// Summary returns log's Fingerprint and TotalWeight. When log provably
// extends the snapshot s covers (dataset.QueryLog.ExtendsFrom), only the
// queries past it are folded into s's rolling fingerprint state and added to
// its total weight, O(appended); otherwise all of log is hashed and summed.
func (s *Segmented) Summary(log *dataset.QueryLog) (fingerprint uint64, totalWeight int) {
	if !log.ExtendsFrom(s.log, s.version, s.nq) {
		return log.Fingerprint(), log.TotalWeight()
	}
	nq := log.Size()
	totalWeight = s.totalWeight
	for i := s.nq; i < nq; i++ {
		totalWeight += log.Weight(i)
	}
	return dataset.FinishFingerprint(log.FoldFingerprint(s.hstate, s.nq, nq), nq, s.width), totalWeight
}

// Log returns the indexed query log.
func (s *Segmented) Log() *dataset.QueryLog { return s.log }

// Fingerprint returns the content hash of the covered log prefix, equal to
// the log's Fingerprint at build/extend time.
func (s *Segmented) Fingerprint() uint64 { return s.fp }

// Version returns the log's version counter at build/extend time.
func (s *Segmented) Version() uint64 { return s.version }

// NumQueries returns the covered log size S.
func (s *Segmented) NumQueries() int { return s.nq }

// TotalWeight returns the covered queries' total weight.
func (s *Segmented) TotalWeight() int { return s.totalWeight }

// Width returns the attribute count M.
func (s *Segmented) Width() int { return s.width }

// Mode returns the representation policy the segments are built with.
func (s *Segmented) Mode() Mode { return s.mode }

// Segments returns the number of segments.
func (s *Segmented) Segments() int { return len(s.segs) }

// Segment returns segment i's index; its query ids are local to the window
// starting at Offset(i).
func (s *Segmented) Segment(i int) *Index { return s.segs[i] }

// Offset returns the global index of segment i's first query.
func (s *Segmented) Offset(i int) int { return s.offs[i] }

// Stale reports whether the log has visibly changed since the build or
// extension that produced s: its version moved or its length differs.
func (s *Segmented) Stale() bool {
	return s.log.Version() != s.version || s.log.Size() != s.nq
}

// AttrFrequencies returns the per-attribute weighted frequencies aggregated
// across segments, equal to the log's own AttrFrequencies. Read-only.
func (s *Segmented) AttrFrequencies() []int { return s.freq }

// Mem aggregates the segments' representation statistics.
func (s *Segmented) Mem() MemStats {
	var st MemStats
	for _, seg := range s.segs {
		m := seg.Mem()
		st.DenseColumns += m.DenseColumns
		st.CompressedColumns += m.CompressedColumns
		st.DenseBuckets += m.DenseBuckets
		st.CompressedBuckets += m.CompressedBuckets
		st.PairBytes += m.PairBytes
		st.TripleBytes += m.TripleBytes
		st.Bytes += m.Bytes
	}
	return st
}
