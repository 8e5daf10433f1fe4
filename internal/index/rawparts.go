package index

import "repro/internal/graph"

// RawLevel is the flat community table of one k-truss level, the on-disk
// shape of the unexported level struct: T_k's edge IDs grouped by
// community (largest first), the community offsets delimiting them, and
// the byPhi-position -> community map.
type RawLevel struct {
	EdgeOrder []int32
	CommOff   []int32
	CommIdx   []int32
}

// RawParts is the complete flat-array anatomy of a TrussIndex minus its
// graph — exactly what the indexfile format serializes. All slices alias
// index storage (RawParts) or are retained by reference (FromRawParts);
// neither side copies, so callers must treat the arrays as frozen.
type RawParts struct {
	Phi   []int32
	KMax  int32
	ByPhi []int32
	Pos   []int32
	Cnt   []int32
	Sizes []int64
	// Levels is indexed by k, length KMax+1 (nil when KMax < 3); entries
	// 0..2 are zero because T_2 carries no triangle structure.
	Levels []RawLevel
}

// RawParts exposes the index's internal arrays without copying.
func (ix *TrussIndex) RawParts() RawParts {
	p := RawParts{
		Phi:   ix.phi,
		KMax:  ix.kmax,
		ByPhi: ix.byPhi,
		Pos:   ix.pos,
		Cnt:   ix.cnt,
		Sizes: ix.sizes,
	}
	if len(ix.levels) > 0 {
		p.Levels = make([]RawLevel, len(ix.levels))
		for k := range ix.levels {
			lv := &ix.levels[k]
			p.Levels[k] = RawLevel{EdgeOrder: lv.edgeOrder, CommOff: lv.commOff, CommIdx: lv.commIdx}
		}
	}
	return p
}

// FromRawParts assembles a TrussIndex directly over pre-built arrays —
// the zero-copy inverse of RawParts, used by the indexfile reader to
// serve queries straight off a memory-mapped file. The arrays are
// retained by reference and must not be modified afterwards; for a
// mapped file they are read-only pages, which is safe because every
// TrussIndex method only reads. A mapping may be closed while an index
// patched from this one lives on, so Patch copies these arrays where it
// would share its own. Content is trusted: shape and checksum
// validation is the indexfile layer's job.
func FromRawParts(g *graph.Graph, p RawParts) *TrussIndex {
	ix := &TrussIndex{
		g:     g,
		phi:   p.Phi,
		kmax:  p.KMax,
		byPhi: p.ByPhi,
		pos:   p.Pos,
		cnt:   p.Cnt,
		sizes: p.Sizes,

		borrowed: true,
	}
	ix.levels = make([]level, len(p.Levels))
	for k := range p.Levels {
		ix.levels[k] = level{
			edgeOrder: p.Levels[k].EdgeOrder,
			commOff:   p.Levels[k].CommOff,
			commIdx:   p.Levels[k].CommIdx,
		}
	}
	return ix
}
