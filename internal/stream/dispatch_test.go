package stream

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/wgen"
)

// TestCastCheckVerdicts pins the scanner cast's verdict, error text and
// work counters on the Experiment 2 seeds. The misordered seed is
// source-invalid, so the cast may (and does) accept it: Item's content
// models agree, and the cast trusts the source for them.
func TestCastCheckVerdicts(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	c, err := NewCaster(ps.Source2, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ err, stats string }{
		"valid": {"",
			"nodes=12 (elem=12 text=0) skimmed=12 steps=0 skipped-symbols=11 skips=6 disjoint=0 full=0 values=2 depth=3"},
		"quantity-out-of-range": {`stream: value "150" does not satisfy simple target type "QuantityType" (positiveInteger maxExclusive=100)`,
			"nodes=11 (elem=11 text=0) skimmed=12 steps=0 skipped-symbols=10 skips=5 disjoint=0 full=0 values=2 depth=3"},
		"unknown-label": {`stream: label "bogus" unknown to the schemas`,
			"nodes=6 (elem=6 text=0) skimmed=12 steps=0 skipped-symbols=5 skips=3 disjoint=0 full=0 values=0 depth=3"},
		"label-forbidden-by-parent": {`stream: label "zip" has no child type under target "Item"`,
			"nodes=6 (elem=6 text=0) skimmed=12 steps=0 skipped-symbols=6 skips=3 disjoint=0 full=0 values=0 depth=3"},
		"misordered-child": {"",
			"nodes=8 (elem=8 text=0) skimmed=12 steps=0 skipped-symbols=7 skips=4 disjoint=0 full=0 values=1 depth=3"},
		"text-under-element-only": {`stream: text content under element-only target type "Items"`,
			"nodes=8 (elem=8 text=0) skimmed=12 steps=0 skipped-symbols=7 skips=4 disjoint=0 full=0 values=1 depth=3"},
	}
	for name, doc := range exp2Seeds {
		w, ok := want[name]
		if !ok {
			t.Fatalf("seed %q has no pinned outcome", name)
		}
		st, err := c.Validate(strings.NewReader(doc))
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if gotErr != w.err || st.String() != w.stats {
			t.Errorf("%s:\n got  %q\n      %s\n want %q\n      %s", name, gotErr, st, w.err, w.stats)
		}
	}
}

// TestRootAndChildMisses covers the miss paths the Experiment 2 seeds do
// not: roots either schema lacks, a child under a simple target type, and
// a label the target content model rejects at the automaton step.
func TestRootAndChildMisses(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	exp1, err := NewCaster(ps.Source1, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := NewCaster(ps.Source2, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		c        *Caster
		doc, err string
	}{
		{exp2, `<nope/>`, `stream: cast contract violated: "nope" is not a source root`},
		{exp2, `<item/>`, `stream: cast contract violated: "item" is not a source root`},
		{exp2, exp2Prolog + `<item><productName>x</productName><quantity><b/></quantity></item>` + exp2Epilog,
			`stream: element "b" under simple target type "QuantityType"`},
		{exp1, `<purchaseOrder><shipTo><name>a</name><street>b</street><city>c</city><state>d</state>` +
			`<zip>1</zip><country>US</country></shipTo><items/></purchaseOrder>`,
			`stream: child "items" not allowed by target content model of "POType2"`},
	}
	for _, tc := range cases {
		_, err := tc.c.Validate(strings.NewReader(tc.doc))
		if err == nil || err.Error() != tc.err {
			t.Errorf("%s:\n got  %v\n want %s", tc.doc, err, tc.err)
		}
	}
}

// TestCastCheckAllocs pins the allocation count of the checking walk: an
// Experiment 2 cast walks every item and checks every quantity, and does
// so without allocating, as does the scanner's full validation of the same
// document. The reader is reused so only the validators are counted.
func TestCastCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled state at random under -race")
	}
	ps := wgen.NewPaperSchemas()
	c, err := NewCaster(ps.Source2, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator(ps.Target)
	data := exp2Doc(500)
	rd := bytes.NewReader(data)
	for name, fn := range map[string]func() (Stats, error){
		"cast": func() (Stats, error) { return c.Validate(rd) },
		"full": func() (Stats, error) { return v.Validate(rd) },
	} {
		allocs := testing.AllocsPerRun(20, func() {
			rd.Reset(data)
			if st, err := fn(); err != nil || st.ValuesChecked != 500 && name == "cast" {
				t.Fatalf("%s: %v %+v", name, err, st)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per validation, want 0", name, allocs)
		}
	}
}

// TestCasterSharedAcrossGoroutines shares one Experiment 2 caster across
// goroutines (run it under -race): the dispatch tables are read-only and
// each validation keeps its search positions in its own frames, so every
// goroutine sees exactly the sequential verdicts and counters.
func TestCasterSharedAcrossGoroutines(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	c, err := NewCaster(ps.Source2, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{string(exp2Doc(50)), poXML(50, true, 199, 3)}
	for _, d := range exp2Seeds {
		docs = append(docs, d)
	}
	want := make([]string, len(docs))
	for i, d := range docs {
		st, err := c.Validate(strings.NewReader(d))
		want[i] = fmt.Sprint(st, err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(docs)
				st, err := c.Validate(strings.NewReader(docs[i]))
				if got := fmt.Sprint(st, err); got != want[i] {
					errs <- fmt.Sprintf("doc %d: got %s, want %s", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDispatchTables checks the compiled tables against the schemas and
// relations they are derived from: every table reachable from the roots
// holds exactly the labels both types of its pair permit, in symbol order,
// with the verdict R_sub/R_dis give the child pair, and wide tables carry
// an index that agrees with the entries.
func TestDispatchTables(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	src, dst, _ := wideCatalog(t)
	for _, p := range []struct{ src, dst *schema.Schema }{
		{ps.Source1, ps.Target}, {ps.Source2, ps.Target}, {src, dst},
	} {
		c, err := NewCaster(p.src, p.dst)
		if err != nil {
			t.Fatal(err)
		}
		var rootLabels []string
		for sym, τ := range p.src.Roots {
			if _, ok := p.dst.Roots[sym]; ok && τ != schema.NoType {
				rootLabels = append(rootLabels, p.src.Alpha.Name(sym))
			}
		}
		checkTable(t, c, c.roots, rootLabels)
		seen := map[*childTable]bool{c.roots: true}
		queue := []*childTable{c.roots}
		for len(queue) > 0 {
			tab := queue[0]
			queue = queue[1:]
			for i := range tab.entries {
				e := &tab.entries[i]
				want := pushChild
				switch {
				case c.Rel.Subsumed(e.src, e.dst):
					want = skimChild
				case c.Rel.Disjoint(e.src, e.dst):
					want = rejectChild
				}
				if e.verdict != want {
					t.Fatalf("%s: verdict %d, want %d", e.label, e.verdict, want)
				}
				if (e.children != nil) != (want == pushChild && !e.tS.Simple && !e.tD.Simple) {
					t.Fatalf("%s: child table presence wrong", e.label)
				}
				if e.children == nil || seen[e.children] {
					continue
				}
				seen[e.children] = true
				queue = append(queue, e.children)
				var labels []string
				for sym := range e.tS.Child {
					if _, ok := e.tD.Child[sym]; ok {
						labels = append(labels, p.src.Alpha.Name(sym))
					}
				}
				checkTable(t, c, e.children, labels)
			}
		}
	}
}

func checkTable(t *testing.T, c *Caster, tab *childTable, labels []string) {
	t.Helper()
	if len(tab.entries) != len(labels) {
		t.Fatalf("table has %d entries, want %d (%v)", len(tab.entries), len(labels), labels)
	}
	sort.Strings(labels)
	var got []string
	for i := range tab.entries {
		e := &tab.entries[i]
		if i > 0 && tab.entries[i-1].sym >= e.sym {
			t.Fatalf("entries not in symbol order at %s", e.label)
		}
		if c.Src.Alpha.Name(e.sym) != e.label {
			t.Fatalf("entry %s carries symbol %d", e.label, e.sym)
		}
		got = append(got, e.label)
		last := (i + len(tab.entries) - 1) % len(tab.entries)
		if found := tab.find([]byte(e.label), &last); found != e || last != i {
			t.Fatalf("find(%s) from %d = entry %v at %d", e.label, i-1, found, last)
		}
		if tab.index != nil && tab.index[e.label] != i {
			t.Fatalf("index[%s] = %d, want %d", e.label, tab.index[e.label], i)
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(labels, ",") {
		t.Fatalf("table labels %v, want %v", got, labels)
	}
	if (tab.index != nil) != (len(tab.entries) > wideTable) {
		t.Fatalf("index presence wrong for %d entries", len(tab.entries))
	}
	last := 0
	if tab.find([]byte("no-such-label"), &last) != nil || last != 0 {
		t.Fatal("find hit a label the table lacks")
	}
}

// TestWideCatalogAgreesWithReference casts documents through a 48-label
// root type — probing next to the previous match, through the index, and
// missing — and requires the verdicts and counters the encoding/xml
// reference walker recorded on the same documents before the scanner
// became the only tokenizer.
func TestWideCatalogAgreesWithReference(t *testing.T) {
	src, dst, doc := wideCatalog(t)
	c, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The out-of-order document is source-invalid; the catalog content
	// models agree, so the cast trusts the source there and accepts it.
	good := string(doc)
	docs := map[string]struct {
		doc   string
		valid bool
		want  Stats
	}{
		"valid": {good, true, Stats{ElementsVisited: 481, AutomatonSteps: 64, SymbolsSkipped: 416,
			SubsumedSkips: 192, ValuesChecked: 128, MaxDepth: 3}},
		"out-of-order": {strings.Replace(good, "<catalog>", "<catalog><section40><title>t</title><note>n</note></section40>", 1), true,
			Stats{ElementsVisited: 484, AutomatonSteps: 66, SymbolsSkipped: 417, SubsumedSkips: 194, ValuesChecked: 128, MaxDepth: 3}},
		"quantity-150": {strings.Replace(good, "<quantity>8</quantity>", "<quantity>150</quantity>", 1), false,
			Stats{ElementsVisited: 22, AutomatonSteps: 4, SymbolsSkipped: 17, SubsumedSkips: 9, ValuesChecked: 5, MaxDepth: 3}},
		"missing-note": {strings.Replace(good, "<note>n</note>", "", 1), false,
			Stats{ElementsVisited: 3, AutomatonSteps: 2, SymbolsSkipped: 1, SubsumedSkips: 1, MaxDepth: 2}},
		"unknown-label": {strings.Replace(good, "<catalog>", "<catalog><section99/>", 1), false,
			Stats{ElementsVisited: 1}},
		"forbidden-here": {strings.Replace(good, "<catalog>", "<catalog><entry/>", 1), false,
			Stats{ElementsVisited: 1, SymbolsSkipped: 1}},
	}
	for name, d := range docs {
		st, err := c.Validate(strings.NewReader(d.doc))
		if (err == nil) != d.valid || st != d.want {
			t.Errorf("%s: %v %+v, want valid=%t %+v", name, err, st, d.valid, d.want)
		}
	}
}
