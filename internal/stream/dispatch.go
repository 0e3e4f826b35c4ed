package stream

import (
	"sort"

	"repro/internal/castmap"
	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/subsume"
)

// childVerdict is what the streaming cast does with a child element
// whose (source, target) type pair a dispatch entry names. It is a pure
// function of the pair and the relations, so it is decided once, when the
// caster is built.
type childVerdict uint8

const (
	// pushChild: neither subsumed nor disjoint — open a frame and
	// validate the child's content.
	pushChild childVerdict = iota
	// skimChild: R_sub holds — the subtree is target-valid, skim it.
	skimChild
	// rejectChild: R_dis holds — no source-valid subtree is target-valid.
	rejectChild
)

// childTable is the compiled child dispatch of one (source, target)
// complex type pair: one entry per label both types permit (types_τ and
// types_τ' both defined). A child's type pair depends only on the parent
// pair and the label (§3), so resolving a start tag is a byte compare
// against the parent's entries instead of an alphabet lookup, two
// types_τ maps and the relation and caster tables. A label with no entry
// is always an error; the walker hands it to the map-based code that
// words those errors.
//
// Tables are immutable after buildDispatch and shared by every
// validation; the per-document search position lives in the frame.
type childTable struct {
	entries []childEntry
	// index maps a label to its entry position. Only wide tables carry
	// one, bounding a miss of the two-entry probe at one map read.
	index map[string]int
}

// wideTable is the entry count above which a childTable gets an index.
const wideTable = 8

// childEntry is one label's dispatch under a parent pair.
type childEntry struct {
	label    string
	sym      fa.Symbol
	src, dst schema.TypeID
	tS, tD   *schema.Type
	verdict  childVerdict
	// children is the child pair's own table when verdict is pushChild and
	// both types are complex; nil otherwise (every child of such a frame
	// is an error).
	children *childTable
	// ida is the child pair's c_immed when the caster table already held
	// it at construction; nil means look it up at push time.
	ida *fa.IDA
}

// find returns the entry for label, or nil when the pair does not permit
// it. The search starts at *last, the frame's previous match, and then
// tries the entry after it, so repeated siblings and siblings in entry
// order hit on the first or second compare; *last moves to the match.
func (t *childTable) find(label []byte, last *int) *childEntry {
	if t == nil {
		return nil
	}
	n := len(t.entries)
	i := *last
	for k := 0; k < n; k++ {
		if t.entries[i].label == string(label) {
			*last = i
			return &t.entries[i]
		}
		if k == 1 && t.index != nil {
			// A wide table settles the rest with one map read.
			j, ok := t.index[string(label)]
			if !ok {
				return nil
			}
			*last = j
			return &t.entries[j]
		}
		if i++; i == n {
			i = 0
		}
	}
	return nil
}

// buildDispatch compiles the child tables of every (complex, complex)
// pair the cast can open a frame for, starting from the shared roots — the
// pairs castmap's precompute walks, minus those below skimmed or rejected
// pairs, which the stream never enters. It returns the root table: one
// entry per label that is a root of both schemas.
//
// The tables are derived, never serialized: an artifact decode rebuilds
// them from the restored relations, and the c_immed IDAs they point at
// are read from casters without building or publishing any.
func buildDispatch(src, dst *schema.Schema, rel *subsume.Relations, casters *castmap.Table) *childTable {
	tables := map[castmap.Pair]*childTable{}
	type pending struct {
		p castmap.Pair
		t *childTable
	}
	var queue []pending
	entry := func(sym fa.Symbol, τ, τp schema.TypeID) childEntry {
		e := childEntry{label: src.Alpha.Name(sym), sym: sym, src: τ, dst: τp,
			tS: src.TypeOf(τ), tD: dst.TypeOf(τp)}
		switch {
		case rel.Subsumed(τ, τp):
			e.verdict = skimChild
		case rel.Disjoint(τ, τp):
			e.verdict = rejectChild
		case !e.tS.Simple && !e.tD.Simple:
			p := castmap.Pair{Src: τ, Dst: τp}
			t, ok := tables[p]
			if !ok {
				t = &childTable{}
				tables[p] = t
				queue = append(queue, pending{p, t})
			}
			e.children = t
			if sc := casters.Lookup(τ, τp); sc != nil {
				e.ida = sc.CImmed
			}
		}
		return e
	}
	roots := &childTable{}
	for sym, τ := range src.Roots {
		if τp, ok := dst.Roots[sym]; ok && τ != schema.NoType && τp != schema.NoType {
			roots.entries = append(roots.entries, entry(sym, τ, τp))
		}
	}
	roots.seal()
	for len(queue) > 0 {
		q := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		a, b := src.TypeOf(q.p.Src), dst.TypeOf(q.p.Dst)
		for sym, ω := range a.Child {
			if ν, ok := b.Child[sym]; ok && ω != schema.NoType && ν != schema.NoType {
				q.t.entries = append(q.t.entries, entry(sym, ω, ν))
			}
		}
		q.t.seal()
	}
	return roots
}

// seal orders the entries by symbol — interning order, which for the
// loaders is declaration order — and indexes a wide table.
func (t *childTable) seal() {
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].sym < t.entries[j].sym })
	if len(t.entries) > wideTable {
		t.index = make(map[string]int, len(t.entries))
		for i := range t.entries {
			t.index[t.entries[i].label] = i
		}
	}
}
