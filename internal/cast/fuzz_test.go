package cast

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/fa"
	"repro/internal/stream"
	"repro/internal/update"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

// Differential fuzzing over random schema pairs: generate a random source
// schema, derive the target by a few local mutations (the schema-evolution
// setting the paper targets), then check on random source-valid documents
// that every cast path agrees with full validation — with and without
// random edits.
func TestFuzzRandomSchemaPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	labels := []string{"elA", "elB", "elC", "elD", "elE", "elF", "elG", "elH"}
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		alpha := fa.NewAlphabet()
		src := wgen.RandomSchema(rng, alpha, wgen.RandomSchemaOptions{Labels: labels})
		dst := src
		for k := 0; k <= rng.Intn(3); k++ {
			dst = wgen.MutateSchema(rng, dst, labels)
		}
		gen := wgen.NewGenerator(src, rng)
		base := baseline.New(dst)
		engines := []*Engine{
			MustNew(src, dst, Options{}),
			MustNew(src, dst, Options{DisableContentIDA: true}),
		}
		dtdOK := src.IsDTD() && dst.IsDTD()
		streamCast, err := stream.NewCaster(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		streamFull := stream.NewValidator(dst)
		for i := 0; i < 25; i++ {
			doc, ok := gen.Document()
			if !ok {
				break // all roots non-productive for this random schema
			}
			if err := src.Validate(doc); err != nil {
				t.Fatalf("round %d: generator emitted a source-invalid doc: %v", round, err)
			}
			baseStats, wantErr := base.Validate(doc)
			for ei, eng := range engines {
				castStats, gotErr := eng.Validate(doc)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("round %d engine %d: cast=%v full=%v\nsrc:\n%s\ndst:\n%s\ndoc: %s",
						round, ei, gotErr, wantErr, src, dst, doc)
				}
				// Proposition-4 flavour: on accepted documents the cast
				// never examines more nodes than a full validation.
				if gotErr == nil && castStats.NodesVisited() > baseStats.NodesVisited() {
					t.Fatalf("round %d engine %d: cast visited %d nodes, full %d",
						round, ei, castStats.NodesVisited(), baseStats.NodesVisited())
				}
			}
			// The scanner stream caster, on the serialized document: the
			// same verdict class, and on accepted documents Prop. 4 — it
			// visits no more elements than full validation does.
			text := xmltree.XMLString(doc)
			streamStats, streamErr := streamCast.Validate(strings.NewReader(text))
			if (streamErr == nil) != (wantErr == nil) {
				t.Fatalf("round %d: stream cast=%v full=%v\nsrc:\n%s\ndst:\n%s\ndoc: %s",
					round, streamErr, wantErr, src, dst, text)
			}
			if streamErr == nil {
				fullStats, err := streamFull.Validate(strings.NewReader(text))
				if err != nil {
					t.Fatalf("round %d: stream full validation rejects an accepted doc: %v\ndoc: %s", round, err, text)
				}
				if streamStats.ElementsVisited > fullStats.ElementsVisited {
					t.Fatalf("round %d: stream cast visited %d elements, full %d\ndoc: %s",
						round, streamStats.ElementsVisited, fullStats.ElementsVisited, text)
				}
			}
			if dtdOK {
				idx := BuildLabelIndex(doc)
				if _, gotErr := engines[0].ValidateDTD(doc, idx); (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("round %d: DTD path disagrees: %v vs %v\ndoc: %s", round, wantErr, wantErr, doc)
				}
			}

			// Now with random edits.
			tk := update.NewTracker(doc)
			fuzzEdits(rng, tk, doc, labels, 1+rng.Intn(3))
			trie := tk.Finalize()
			_, wantErr = base.Validate(doc)
			for ei, eng := range engines {
				if _, gotErr := eng.ValidateModified(doc, trie); (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("round %d engine %d (modified): cast=%v full=%v\nsrc:\n%s\ndst:\n%s\ndoc: %s",
						round, ei, gotErr, wantErr, src, dst, doc)
				}
			}
		}
	}
}

func fuzzEdits(rng *rand.Rand, tk *update.Tracker, doc *xmltree.Node, labels []string, n int) {
	var all []*xmltree.Node
	doc.Walk(func(nd *xmltree.Node) bool {
		all = append(all, nd)
		return true
	})
	for done, guard := 0, 0; done < n && guard < 100; guard++ {
		nd := all[rng.Intn(len(all))]
		var err error
		switch rng.Intn(4) {
		case 0:
			if nd.IsText() {
				err = tk.SetText(nd, []string{"1", "50", "red", "true", "zzz"}[rng.Intn(5)])
			} else {
				err = tk.Relabel(nd, labels[rng.Intn(len(labels))])
			}
		case 1:
			if nd.IsText() {
				continue
			}
			child := xmltree.NewElement(labels[rng.Intn(len(labels))])
			if rng.Intn(2) == 0 {
				child.AppendChild(xmltree.NewText("5"))
			}
			err = tk.AppendChild(nd, child)
		case 2:
			if nd.Parent == nil {
				continue
			}
			err = tk.InsertBefore(nd, xmltree.NewElement(labels[rng.Intn(len(labels))]))
		default:
			if nd.Parent == nil {
				continue
			}
			err = tk.Delete(nd)
		}
		if err == nil {
			done++
		}
	}
}

// The relations computed for random pairs must stay sound on sampled trees
// (a broader Theorem 1/2 check than the paper-schema one in subsume).
func TestFuzzRelationsSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(4040))
	labels := []string{"elA", "elB", "elC", "elD", "elE"}
	rounds := 15
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		alpha := fa.NewAlphabet()
		src := wgen.RandomSchema(rng, alpha, wgen.RandomSchemaOptions{Labels: labels})
		dst := wgen.MutateSchema(rng, src, labels)
		eng := MustNew(src, dst, Options{})
		gen := wgen.NewGenerator(src, rng)
		for _, a := range src.Types {
			for _, b := range dst.Types {
				for i := 0; i < 4; i++ {
					tree, ok := gen.Tree("probe", a.ID)
					if !ok {
						continue
					}
					validDst := dst.ValidateType(b.ID, tree) == nil
					if eng.Rel.Subsumed(a.ID, b.ID) && !validDst {
						t.Fatalf("round %d: unsound subsumption %s ≤ %s\ntree: %s",
							round, a.Name, b.Name, tree)
					}
					if eng.Rel.Disjoint(a.ID, b.ID) && validDst {
						t.Fatalf("round %d: unsound disjointness %s ⊘ %s\ntree: %s",
							round, a.Name, b.Name, tree)
					}
				}
			}
		}
	}
}
