package stream

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/baseline"
	"repro/internal/schema"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

// diffSeeds seeds a differential fuzz target with the shared grammar-corner
// corpus.
func diffSeeds(f *testing.F) {
	for _, s := range wgen.GrammarCorners() {
		f.Add([]byte(s))
	}
}

// isLimit reports whether err is a resource-limit rejection, a verdict
// the unlimited tree oracle has no counterpart for.
func isLimit(err error) bool {
	var le *LimitError
	return errors.As(err, &le)
}

// exp2Prolog and exp2Epilog frame an Experiment 2 document (Source2 →
// Target, quantity maxExclusive 200 → 100) around its items, so a seed
// names only the items it varies.
const (
	exp2Prolog = `<purchaseOrder><shipTo><name>a</name><street>b</street><city>c</city>` +
		`<state>d</state><zip>1</zip><country>US</country></shipTo><billTo><name>a</name>` +
		`<street>b</street><city>c</city><state>d</state><zip>1</zip><country>US</country>` +
		`</billTo><items>`
	exp2Epilog = `</items></purchaseOrder>`
	exp2Item   = `<item><productName>x</productName><quantity>5</quantity><USPrice>1.5</USPrice></item>`
)

// exp2Seeds are Experiment 2 documents that drive the checking walk into
// each of its outcomes: accepted, a value the target's facet rejects, and
// every kind of label the child dispatch tables lack.
var exp2Seeds = map[string]string{
	"valid": exp2Prolog + exp2Item + exp2Item + exp2Epilog,
	"quantity-out-of-range": exp2Prolog + exp2Item +
		`<item><productName>x</productName><quantity>150</quantity><USPrice>1.5</USPrice></item>` + exp2Epilog,
	"unknown-label": exp2Prolog +
		`<item><productName>x</productName><bogus/><quantity>5</quantity><USPrice>1.5</USPrice></item>` + exp2Epilog,
	"label-forbidden-by-parent": exp2Prolog +
		`<item><productName>x</productName><zip>1</zip><quantity>5</quantity><USPrice>1.5</USPrice></item>` + exp2Epilog,
	"misordered-child": exp2Prolog +
		`<item><quantity>5</quantity><productName>x</productName><USPrice>1.5</USPrice></item>` + exp2Epilog,
	"text-under-element-only": exp2Prolog + exp2Item + `stray` + exp2Item + exp2Epilog,
}

// FuzzStreamCastDifferential holds the streaming caster to the tree
// oracle: the input parsed into a tree and fully validated by package
// baseline, an engine that shares no walking code with the walkers.
// Malformed input (the tree parse fails) must be rejected. On
// input valid under the source schema — the cast's contract — the cast's
// verdict must be full validation's against the target, and by
// Proposition 4 the cast may visit no more elements than stream full
// validation of the same bytes. Each input is cast under two pairs:
// Experiment 1 (Source1 → Target), where the cast skims almost
// everything, and Experiment 2 (Source2 → Target), where it walks every
// item through the child dispatch tables. Limit rejections have no tree
// counterpart and are skipped.
func FuzzStreamCastDifferential(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	var sources []*schema.Schema
	var casters []*Caster
	for _, src := range []*schema.Schema{ps.Source1, ps.Source2} {
		c, err := NewCaster(src, ps.Target)
		if err != nil {
			f.Fatal(err)
		}
		sources = append(sources, src)
		casters = append(casters, c)
	}
	full := NewValidator(ps.Target)
	diffSeeds(f)
	for _, doc := range exp2Seeds {
		f.Add([]byte(doc))
	}
	lim := Limits{MaxDepth: 64, MaxElements: 10_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, parseErr := xmltree.Parse(bytes.NewReader(data))
		for i, c := range casters {
			st, err := c.ValidateContext(context.Background(), bytes.NewReader(data), lim)
			if isLimit(err) {
				continue
			}
			if parseErr != nil {
				if err == nil {
					t.Fatalf("exp%d: cast accepted malformed input (%v) %q", i+1, parseErr, data)
				}
				continue
			}
			if _, errSrc := baseline.New(sources[i]).Validate(tree); errSrc != nil {
				continue // source-invalid: outside the cast's contract
			}
			if _, errDst := baseline.New(ps.Target).Validate(tree); (err == nil) != (errDst == nil) {
				t.Fatalf("exp%d: verdict divergence: cast %v, tree oracle %v on %q", i+1, err, errDst, data)
			}
			stFull, errFull := full.ValidateContext(context.Background(), bytes.NewReader(data), lim)
			if !isLimit(errFull) && st.ElementsVisited > stFull.ElementsVisited {
				t.Fatalf("exp%d: cast visited %d elements, full validation %d (Prop. 4) on %q",
					i+1, st.ElementsVisited, stFull.ElementsVisited, data)
			}
		}
	})
}

// FuzzStreamFullDifferential holds the full streaming validator to the
// tree oracle (a parse error is a reject): the same verdict, and on accepts the same element count and
// maximum depth. Limit rejections have no tree counterpart and are
// skipped.
func FuzzStreamFullDifferential(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	v := NewValidator(ps.Target)
	diffSeeds(f)
	lim := Limits{MaxDepth: 64, MaxElements: 10_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := v.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		if isLimit(err) {
			return
		}
		tree, wantErr := xmltree.Parse(bytes.NewReader(data))
		var want Stats
		if wantErr == nil {
			want, wantErr = baseline.New(ps.Target).Validate(tree)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("verdict divergence: stream %v, tree oracle %v on %q", err, wantErr, data)
		}
		if err == nil && (st.ElementsVisited != want.ElementsVisited || st.MaxDepth != want.MaxDepth) {
			t.Fatalf("stats divergence on accepted input:\nstream: %+v\ntree:   %+v\non %q", st, want, data)
		}
	})
}

// FuzzStreamFullValidate holds the full streaming validator to the same
// fault-containment contract FuzzStreamValidate holds the caster to: any
// input produces a verdict or an error under the configured limits —
// never a panic, never a hang, never a depth or element overrun.
func FuzzStreamFullValidate(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	v := NewValidator(ps.Target)
	diffSeeds(f)
	const maxDepth, maxElements = 64, 10_000
	lim := Limits{MaxDepth: maxDepth, MaxElements: maxElements}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := v.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		if st.MaxDepth >= maxDepth {
			t.Fatalf("depth limit not enforced: reached %d (limit %d)", st.MaxDepth, maxDepth)
		}
		if st.ElementsVisited > maxElements+1 {
			t.Fatalf("element limit not enforced: consumed %d (limit %d)", st.ElementsVisited, maxElements)
		}
		_ = err
	})
}
