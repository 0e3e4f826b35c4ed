package cast

import (
	"repro/internal/schema"
	"repro/internal/work"
	"repro/internal/xmltree"
)

// Stats counts the work one cast validation performed; the node counters
// correspond to the paper's Table 3 metric. It is the work counter every
// engine shares.
type Stats = work.Stats

// fullValidateSubtree runs the target-schema full validator over a subtree
// at element depth depth whose root the caller has already counted, folding
// the excursion's work into st.
func fullValidateSubtree(e *Engine, τp schema.TypeID, node *xmltree.Node, depth int, st *Stats) error {
	st.FullValidations++
	return e.full.ValidateType(τp, node, depth, st)
}
