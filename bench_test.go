// Benchmarks regenerating the paper's evaluation (EDBT'04 §6): one
// benchmark family per table/figure, plus the ablations DESIGN.md calls
// out. `go test -bench=. -benchmem` prints the series; `cmd/castbench`
// renders the same data as paper-style tables.
package revalidate_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"bytes"

	revalidate "repro"
	"repro/internal/baseline"
	"repro/internal/cast"
	"repro/internal/fa"
	"repro/internal/regexpsym"

	"repro/internal/strcast"
	"repro/internal/stream"
	"repro/internal/subsume"
	"repro/internal/update"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

// --- Table 2: input document file sizes --------------------------------

// BenchmarkTable2Serialize measures document generation + serialization at
// the paper's item counts; the reported bytes/op are the Table 2 sizes.
func BenchmarkTable2Serialize(b *testing.B) {
	for _, n := range wgen.PaperItemCounts {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 2004})
			size := len(wgen.POXMLBytes(doc))
			b.ReportMetric(float64(size), "filebytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = wgen.POXMLBytes(doc)
			}
		})
	}
}

// --- Figure 3a: Experiment 1 -------------------------------------------

// BenchmarkExperiment1 validates Figure-1a documents (billTo present,
// optional in the source) against the Figure-2 target (billTo required).
// The cast series is expected flat in item count; the full series linear.
func BenchmarkExperiment1(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	for _, n := range wgen.PaperItemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 2004})
		b.Run(fmt.Sprintf("cast/items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("full/items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := base.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 3b: Experiment 2 -------------------------------------------

// BenchmarkExperiment2 validates maxExclusive=200 documents (quantities all
// < 100) against the maxExclusive=100 target: every quantity value must be
// read, so both series are linear; the cast skips the other item children.
func BenchmarkExperiment2(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	for _, n := range wgen.PaperItemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, MaxQuantity: 99, Seed: 2004})
		b.Run(fmt.Sprintf("cast/items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("full/items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := base.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 3: nodes visited in Experiment 2 ----------------------------

// BenchmarkTable3NodesVisited reports the nodes-visited metric per
// validation as a custom benchmark metric (nodes/op) for both validators.
func BenchmarkTable3NodesVisited(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	for _, n := range wgen.PaperItemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, MaxQuantity: 99, Seed: 2004})
		b.Run(fmt.Sprintf("cast/items=%d", n), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				st, err := engine.Validate(doc)
				if err != nil {
					b.Fatal(err)
				}
				nodes = st.NodesVisited()
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
		b.Run(fmt.Sprintf("full/items=%d", n), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				st, err := base.Validate(doc)
				if err != nil {
					b.Fatal(err)
				}
				nodes = st.NodesVisited()
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// --- Ablation: §4 content IDAs on/off ----------------------------------

// BenchmarkContentIDAAblation compares the full engine against the
// paper's modified-Xerces configuration (relations only, plain DFA scans
// for content models).
func BenchmarkContentIDAAblation(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	withIDA := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	withoutIDA := cast.MustNew(ps.Source2, ps.Target, cast.Options{DisableContentIDA: true})
	doc := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, MaxQuantity: 99, Seed: 5})
	b.Run("with-content-IDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := withIDA.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plain-DFA-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := withoutIDA.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: §3.4 DTD label index ------------------------------------

// BenchmarkDTDLabelIndex compares the generic top-down cast against the
// label-indexed variant (index build amortized and also measured alone).
func BenchmarkDTDLabelIndex(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	doc := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, MaxQuantity: 99, Seed: 6})
	idx := cast.BuildLabelIndex(doc)
	b.Run("top-down", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("label-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.ValidateDTD(doc, idx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cast.BuildLabelIndex(doc)
		}
	})
}

// --- §3.3 / §4.3: incremental revalidation after edits ------------------

// BenchmarkModifiedRevalidation measures schema cast with modifications at
// growing edit counts against full revalidation of the edited document.
func BenchmarkModifiedRevalidation(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Target, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	for _, edits := range []int{1, 8, 64} {
		doc := wgen.PODocument(wgen.PODocOptions{Items: 1000, IncludeBillTo: true, Seed: 7})
		tk := update.NewTracker(doc)
		items := doc.Children[2].Children
		for i := 0; i < edits; i++ {
			qty := items[(i*37)%len(items)].Children[1].Children[0]
			if err := tk.SetText(qty, "7"); err != nil {
				b.Fatal(err)
			}
		}
		trie := tk.Finalize()
		b.Run(fmt.Sprintf("incremental/edits=%d", edits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.ValidateModified(doc, trie); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("full/edits=%d", edits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := base.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §4: string-level IDA vs plain rescan ------------------------------

// BenchmarkIDAvsPlainScan sweeps string length for casting strings in L(a)
// against b with the immediate decision automaton (which decides after a
// bounded prefix here) versus a full rescan with b.
func BenchmarkIDAvsPlainScan(b *testing.B) {
	alpha := fa.NewAlphabet()
	// Source: x (y | z)*; target: x y* — verdict is forced at the first z
	// or, absent z, only at the end; on all-y strings the IDA immediately
	// accepts after 1 symbol because L(q) coincides.
	a := regexpsym.Compile(regexpsym.MustParse("x, (y)*"), alpha)
	t := regexpsym.Compile(regexpsym.MustParse("x, y*"), alpha)
	caster := strcast.New(a, t)
	for _, n := range []int{10, 1000, 100000} {
		word := make([]fa.Symbol, 0, n+1)
		word = append(word, alpha.Lookup("x"))
		for i := 0; i < n; i++ {
			word = append(word, alpha.Lookup("y"))
		}
		b.Run(fmt.Sprintf("ida/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := caster.Validate(word); !res.Accepted {
					b.Fatal("should accept")
				}
			}
		})
		b.Run(fmt.Sprintf("rescan/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !t.Accepts(word) {
					b.Fatal("should accept")
				}
			}
		})
	}
}

// BenchmarkReverseScan measures the §4.3 direction choice: after an append
// at the end of a long string, the reverse-automaton scan touches O(1)
// symbols while a forward rescan touches all of them.
func BenchmarkReverseScan(b *testing.B) {
	alpha := fa.NewAlphabet()
	a := regexpsym.Compile(regexpsym.MustParse("x, y*"), alpha)
	t := regexpsym.Compile(regexpsym.MustParse("x, y*"), alpha)
	caster := strcast.New(a, t)
	for _, n := range []int{100, 10000} {
		base := make([]fa.Symbol, 0, n+2)
		base = append(base, alpha.Lookup("x"))
		for i := 0; i < n; i++ {
			base = append(base, alpha.Lookup("y"))
		}
		ed := strcast.NewEditor(base)
		ed.Append(alpha.Lookup("y"))
		p, q := ed.Bounds()
		b.Run(fmt.Sprintf("reverse/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := caster.ValidateModified(ed.Original(), ed.Current(), p, q)
				if !res.Accepted || !res.Reversed {
					b.Fatalf("expected reverse-accepted, got %+v", res)
				}
			}
		})
		b.Run(fmt.Sprintf("forward-rescan/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := caster.ValidateModified(ed.Original(), ed.Current(), 0, 0)
				if !res.Accepted {
					b.Fatal("should accept")
				}
			}
		})
	}
}

// --- Preprocessing costs ------------------------------------------------

// BenchmarkRsubPrecompute measures the one-time static analysis: the
// R_sub/R_dis fixpoints and full engine construction for the paper pair.
func BenchmarkRsubPrecompute(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	b.Run("relations", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subsume.MustCompute(ps.Source1, ps.Target)
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cast.MustNew(ps.Source1, ps.Target, cast.Options{})
		}
	})
	b.Run("schema-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wgen.NewPaperSchemas()
		}
	})
}

// --- Supporting micro-benchmarks ----------------------------------------

// BenchmarkParseDocument measures XML parsing into the ordered-tree model.
func BenchmarkParseDocument(b *testing.B) {
	for _, n := range []int{50, 1000} {
		data := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 8}))
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := xmltree.ParseString(string(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadXSD measures loading the Figure 2 schema from XSD text:
// the tree parse plus the schema build and compile behind PUT /schemas.
func BenchmarkLoadXSD(b *testing.B) {
	text := wgen.Figure2XSD(false, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := revalidate.NewUniverse().LoadXSDString(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerator measures random valid-document generation (the
// workload generator itself).
func BenchmarkGenerator(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	rng := rand.New(rand.NewSource(9))
	gen := wgen.NewGenerator(ps.Target, rng)
	for i := 0; i < b.N; i++ {
		if _, ok := gen.Document(); !ok {
			b.Fatal("generation failed")
		}
	}
}

// --- Streaming vs tree-based validation ---------------------------------

// BenchmarkStreaming compares tree-building + cast against pure streaming
// validation and streaming cast on serialized input (the broker setting:
// documents arrive as bytes).
func BenchmarkStreaming(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	data := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 10}))
	engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{})
	streamCaster, err := stream.NewCaster(ps.Source1, ps.Target)
	if err != nil {
		b.Fatal(err)
	}
	streamFull := stream.NewValidator(ps.Target)
	b.Run("parse+tree-cast", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			doc, err := xmltree.ParseString(string(data))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-cast", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := streamCaster.Validate(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-full", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := streamFull.Validate(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Parallel validation: hot-path contention ----------------------------

// BenchmarkParallelCast races goroutines on ONE shared engine over the
// Experiment-1 workload. With the lock-free caster table the per-element
// validate path takes no mutex, so throughput should scale with -cpu
// (vary goroutines with `go test -bench=ParallelCast -cpu=1,2,4,8`).
func BenchmarkParallelCast(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	doc := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 2004})
	b.Run("tree-cast", func(b *testing.B) {
		engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{})
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := engine.Validate(doc); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	// On-demand pairs only: with relations disabled every content model
	// runs, and subsumed pairs' casters come from the copy-on-write
	// overflow — the path a mutex used to serialize.
	b.Run("tree-cast-on-demand", func(b *testing.B) {
		engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{DisableRelations: true})
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := engine.Validate(doc); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	data := string(wgen.POXMLBytes(doc))
	b.Run("stream-cast", func(b *testing.B) {
		sc, err := stream.NewCaster(ps.Source1, ps.Target)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := sc.Validate(strings.NewReader(data)); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkParallelBatchScaling sweeps the worker count of the public
// batch API: the tracked series is docs/sec at 1→GOMAXPROCS workers
// (cmd/castbench -parallel prints the same curve with speedups). The
// workload is the Experiment-2 pair — every quantity facet must be
// checked, so per-document work is linear in items and the curve reflects
// validation scaling rather than pool overhead (Experiment-1 documents
// cast in O(1), ~140ns, far below per-task dispatch cost).
func BenchmarkParallelBatchScaling(b *testing.B) {
	u := revalidate.NewUniverse()
	src, err := u.LoadXSDString(wgen.Figure2XSD(false, 200))
	if err != nil {
		b.Fatal(err)
	}
	dst, err := u.LoadXSDString(wgen.Figure2XSD(false, 100))
	if err != nil {
		b.Fatal(err)
	}
	caster, err := revalidate.NewCaster(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	docs := make([]*revalidate.Document, batch)
	for i := range docs {
		xmlText := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{
			Items: 200, IncludeBillTo: true, MaxQuantity: 99, Seed: int64(i)}))
		doc, err := revalidate.ParseDocumentString(string(xmlText))
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
	}
	for workers := 1; ; workers *= 2 {
		if workers > runtime.GOMAXPROCS(0) {
			break
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				errs, _ := caster.ValidateAll(docs, workers)
				for _, e := range errs {
					if e != nil {
						b.Fatal(e)
					}
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// --- Subsumption scaling -------------------------------------------------

// BenchmarkRelationsScaling grows random schema pairs and measures the
// R_sub/R_dis computation, supporting the paper's claim that its subtyping
// is polynomial in schema size (contrast with the exponential regular-tree
// subtyping of XDuce, §2).
func BenchmarkRelationsScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(606))
	for _, types := range []int{8, 16, 32, 64} {
		labels := make([]string, types)
		for i := range labels {
			labels[i] = fmt.Sprintf("l%02d", i)
		}
		alpha := fa.NewAlphabet()
		opts := wgen.RandomSchemaOptions{Labels: labels, SimpleTypes: types / 4, ComplexTypes: types - types/4}
		src := wgen.RandomSchema(rng, alpha, opts)
		dst := wgen.MutateSchema(rng, src, labels)
		b.Run(fmt.Sprintf("types=%d", types), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				subsume.MustCompute(src, dst)
			}
		})
	}
}
