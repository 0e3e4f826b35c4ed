// Package work defines the one counter of validation work that every
// engine fills: the tree cast (internal/cast), the streaming validators
// (internal/stream) and the full-validation baseline (internal/baseline).
// The counters are the paper's machine-independent cost measure (Table 3:
// nodes visited, subtrees skipped, automaton steps), so they mean the same
// thing wherever a Stats appears — in-process, in castd's responses and in
// the benchmarks.
package work

import (
	"fmt"
	"sync/atomic"
)

// Stats counts the work one validation performed. A counter an engine has
// no use for stays 0: only the tree engines read text leaves and hand
// subtrees to the full validator, only the stream engines skim elements
// and check values off the token stream.
//
// The JSON form is the per-request "stats" object castd returns. The
// counters only the tree engines fill are omitted when zero, so a stream
// validation encodes exactly its own counters.
type Stats struct {
	// ElementsVisited counts element nodes that received validation work.
	ElementsVisited int64 `json:"elementsVisited"`
	// ElementsSkimmed counts elements a streaming cast consumed inside
	// subsumed subtrees with no validation work (the streaming analogue of
	// a skipped subtree's interior).
	ElementsSkimmed int64 `json:"elementsSkimmed"`
	// TextNodesVisited counts χ leaves whose value a tree engine read.
	TextNodesVisited int64 `json:"textNodesVisited,omitempty"`
	// AutomatonSteps counts content-model transitions taken — exactly the
	// number of child-label symbols *scanned*.
	AutomatonSteps int64 `json:"automatonSteps"`
	// SymbolsSkipped counts child labels seen after an immediate decision
	// automaton had already settled the content-model verdict: the symbols
	// §4's c_immed saved from scanning.
	SymbolsSkipped int64 `json:"symbolsSkipped"`
	// SubsumedSkips counts subtrees skipped because (τ, τ') ∈ R_sub.
	SubsumedSkips int64 `json:"subsumedSkips"`
	// DisjointRejects counts rejections due to (τ, τ') ∈ R_dis (0 or 1 per
	// validation, since the first one aborts).
	DisjointRejects int64 `json:"disjointRejects"`
	// FullValidations counts subtrees a tree cast handed to the full
	// validator (inserted content, or simple-source fallbacks).
	FullValidations int64 `json:"fullValidations,omitempty"`
	// ReverseScans counts §4.3 with-modifications content checks that chose
	// the reverse-automaton direction (edits clustered at the end).
	ReverseScans int64 `json:"reverseScans,omitempty"`
	// ValuesChecked counts simple values a stream engine tested against
	// facets.
	ValuesChecked int64 `json:"valuesChecked"`
	// MaxDepth is the deepest element depth reached (root = 0), counting
	// skimmed elements. Merges take the max, not the sum.
	MaxDepth int64 `json:"maxDepth"`
}

// Add accumulates d into s (single-goroutine use). Each validation returns
// its own request-scoped Stats; callers that serve many (the batch APIs,
// benchmarks) merge them into cumulative totals with Add.
func (s *Stats) Add(d Stats) {
	s.ElementsVisited += d.ElementsVisited
	s.ElementsSkimmed += d.ElementsSkimmed
	s.TextNodesVisited += d.TextNodesVisited
	s.AutomatonSteps += d.AutomatonSteps
	s.SymbolsSkipped += d.SymbolsSkipped
	s.SubsumedSkips += d.SubsumedSkips
	s.DisjointRejects += d.DisjointRejects
	s.FullValidations += d.FullValidations
	s.ReverseScans += d.ReverseScans
	s.ValuesChecked += d.ValuesChecked
	if d.MaxDepth > s.MaxDepth {
		s.MaxDepth = d.MaxDepth
	}
}

// AtomicAdd is Add for a total that several goroutines merge into: batch
// workers call it once each with their local totals, so a batch's
// statistics need no mutex. s may only be read once every worker is done.
func (s *Stats) AtomicAdd(d Stats) {
	atomic.AddInt64(&s.ElementsVisited, d.ElementsVisited)
	atomic.AddInt64(&s.ElementsSkimmed, d.ElementsSkimmed)
	atomic.AddInt64(&s.TextNodesVisited, d.TextNodesVisited)
	atomic.AddInt64(&s.AutomatonSteps, d.AutomatonSteps)
	atomic.AddInt64(&s.SymbolsSkipped, d.SymbolsSkipped)
	atomic.AddInt64(&s.SubsumedSkips, d.SubsumedSkips)
	atomic.AddInt64(&s.DisjointRejects, d.DisjointRejects)
	atomic.AddInt64(&s.FullValidations, d.FullValidations)
	atomic.AddInt64(&s.ReverseScans, d.ReverseScans)
	atomic.AddInt64(&s.ValuesChecked, d.ValuesChecked)
	for {
		cur := atomic.LoadInt64(&s.MaxDepth)
		if d.MaxDepth <= cur || atomic.CompareAndSwapInt64(&s.MaxDepth, cur, d.MaxDepth) {
			return
		}
	}
}

// NoteDepth records that the validation reached an element at depth d.
func (s *Stats) NoteDepth(d int) {
	if int64(d) > s.MaxDepth {
		s.MaxDepth = int64(d)
	}
}

// NodesVisited is the total of element and text nodes examined — the
// quantity the paper's Table 3 reports for the tree engines.
func (s Stats) NodesVisited() int64 { return s.ElementsVisited + s.TextNodesVisited }

// WorkSavedRatio is the fraction of elements a streaming cast skimmed
// instead of validating: skimmed/(visited+skimmed), 0 when nothing flowed.
// The stream sees every element go by, so the total needs no outside help;
// for the tree engines use NodesSavedRatio.
func (s Stats) WorkSavedRatio() float64 {
	total := s.ElementsVisited + s.ElementsSkimmed
	if total == 0 {
		return 0
	}
	return float64(s.ElementsSkimmed) / float64(total)
}

// NodesSavedRatio is the fraction of a document's nodes a tree validation
// never touched, given the document's total node count: 1 − visited/total,
// clamped to [0, 1]. The tree engine cannot know the size of the subtrees
// it skipped, so the caller supplies the total.
func (s Stats) NodesSavedRatio(totalNodes int64) float64 {
	if totalNodes <= 0 {
		return 0
	}
	r := 1 - float64(s.NodesVisited())/float64(totalNodes)
	if r < 0 {
		return 0
	}
	return r
}

// SymbolsScannedRatio is the fraction of content-model symbols actually
// scanned out of all symbols seen: steps/(steps+skipped). 1 when no
// immediate decision fired (or nothing was scanned at all).
func (s Stats) SymbolsScannedRatio() float64 {
	total := s.AutomatonSteps + s.SymbolsSkipped
	if total == 0 {
		return 1
	}
	return float64(s.AutomatonSteps) / float64(total)
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d (elem=%d text=%d) skimmed=%d steps=%d skipped-symbols=%d skips=%d disjoint=%d full=%d values=%d depth=%d",
		s.NodesVisited(), s.ElementsVisited, s.TextNodesVisited, s.ElementsSkimmed,
		s.AutomatonSteps, s.SymbolsSkipped, s.SubsumedSkips, s.DisjointRejects, s.FullValidations,
		s.ValuesChecked, s.MaxDepth)
}
