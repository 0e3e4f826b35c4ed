package cast

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/schema"
	"repro/internal/update"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

// editedPO returns a fresh PO document (valid for src) plus a tracker.
func editedPO(items int, bill bool, seed int64) (*xmltree.Node, *update.Tracker) {
	doc := wgen.PODocument(wgen.PODocOptions{Items: items, IncludeBillTo: bill, Seed: seed})
	return doc, update.NewTracker(doc)
}

func TestModifiedNoEdits(t *testing.T) {
	_, e1, _ := paperEngines(t, Options{})
	doc, tk := editedPO(10, true, 1)
	st, err := e1.ValidateModified(doc, tk.Finalize())
	if err != nil {
		t.Fatalf("unedited doc should validate: %v", err)
	}
	// With an empty trie the whole run is the plain cast: constant work.
	if st.NodesVisited() > 4 {
		t.Fatalf("expected plain-cast work, got %s", st)
	}
}

func TestModifiedInsertBillTo(t *testing.T) {
	// Source: billTo optional; doc lacks billTo; target requires it.
	// Inserting a billTo subtree makes the cast succeed.
	_, e1, _ := paperEngines(t, Options{})
	doc, tk := editedPO(10, false, 2)
	bill := xmltree.NewElement("billTo",
		xmltree.NewElement("name", xmltree.NewText("Bob")),
		xmltree.NewElement("street", xmltree.NewText("2 Oak Ave")),
		xmltree.NewElement("city", xmltree.NewText("Old Town")),
		xmltree.NewElement("state", xmltree.NewText("PA")),
		xmltree.NewElement("zip", xmltree.NewText("95819")),
		xmltree.NewElement("country", xmltree.NewText("US")),
	)
	if err := tk.InsertAfter(doc.Children[0], bill); err != nil {
		t.Fatal(err)
	}
	st, err := e1.ValidateModified(doc, tk.Finalize())
	if err != nil {
		t.Fatalf("after inserting billTo the cast should pass: %v (%s)", err, st)
	}
	if st.FullValidations == 0 {
		t.Fatal("the inserted subtree must be fully validated")
	}
	// The full-validation excursion counts depth from the document root:
	// billTo sits at depth 1, its leaves at depth 2.
	if st.MaxDepth != 2 {
		t.Fatalf("MaxDepth = %d, want 2 (%s)", st.MaxDepth, st)
	}
	// Without the insert the same cast fails.
	doc2, tk2 := editedPO(10, false, 2)
	if _, err := e1.ValidateModified(doc2, tk2.Finalize()); err == nil {
		t.Fatal("missing billTo must fail")
	}
}

func TestModifiedDeleteBillTo(t *testing.T) {
	// Deleting billTo breaks the (billTo-required) target.
	_, e1, _ := paperEngines(t, Options{})
	doc, tk := editedPO(10, true, 3)
	if err := tk.Delete(doc.Children[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.ValidateModified(doc, tk.Finalize()); err == nil {
		t.Fatal("deleting billTo must fail against the target")
	}
	// Against the billTo-optional schema the same deletion is fine.
	ps := wgen.NewPaperSchemas()
	eOpt := MustNew(ps.Target, ps.Source1, Options{})
	doc2 := wgen.PODocument(wgen.PODocOptions{Items: 10, IncludeBillTo: true, Seed: 3})
	tk2 := update.NewTracker(doc2)
	if err := tk2.Delete(doc2.Children[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := eOpt.ValidateModified(doc2, tk2.Finalize()); err != nil {
		t.Fatalf("optional billTo deletion should pass: %v", err)
	}
}

func TestModifiedQuantityEdit(t *testing.T) {
	// Same-schema incremental revalidation: bump one quantity.
	ps := wgen.NewPaperSchemas()
	e := MustNew(ps.Target, ps.Target, Options{})
	doc := wgen.PODocument(wgen.PODocOptions{Items: 100, IncludeBillTo: true, Seed: 4})
	tk := update.NewTracker(doc)
	qtyText := doc.Children[2].Children[50].Children[1].Children[0]
	if err := tk.SetText(qtyText, "150"); err != nil {
		t.Fatal(err)
	}
	st, err := e.ValidateModified(doc, tk.Finalize())
	if err == nil {
		t.Fatal("quantity 150 must fail against maxExclusive=100")
	}
	// Work must be proportional to the edit path, not the document: the
	// traversal descends root→items→item[50]→quantity, skipping all
	// sibling subtrees via subsumption.
	if st.NodesVisited() > 250 {
		t.Fatalf("expected localized work, got %s", st)
	}
	// A legal edit passes.
	doc2 := wgen.PODocument(wgen.PODocOptions{Items: 100, IncludeBillTo: true, Seed: 4})
	tk2 := update.NewTracker(doc2)
	if err := tk2.SetText(doc2.Children[2].Children[50].Children[1].Children[0], "42"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ValidateModified(doc2, tk2.Finalize()); err != nil {
		t.Fatalf("quantity 42 should pass: %v", err)
	}
}

func TestModifiedRelabelRoot(t *testing.T) {
	_, e1, _ := paperEngines(t, Options{})
	doc, tk := editedPO(3, true, 5)
	if err := tk.Relabel(doc, "order"); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.ValidateModified(doc, tk.Finalize()); err == nil {
		t.Fatal("unknown root label must fail")
	}
}

func TestModifiedItemReordering(t *testing.T) {
	// Swap productName and quantity inside one item via relabeling: the
	// content model (productName, quantity, USPrice) no longer matches.
	ps := wgen.NewPaperSchemas()
	e := MustNew(ps.Target, ps.Target, Options{})
	doc := wgen.PODocument(wgen.PODocOptions{Items: 5, IncludeBillTo: true, Seed: 6})
	tk := update.NewTracker(doc)
	item := doc.Children[2].Children[2]
	if err := tk.Relabel(item.Children[0], "quantity"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ValidateModified(doc, tk.Finalize()); err == nil {
		t.Fatal("duplicate quantity label must fail the content model")
	}
}

// Differential oracle for the with-modifications path: random edit scripts
// against random generated documents; the incremental verdict must match a
// from-scratch full validation of the edited tree.
func TestModifiedAgreesWithFullValidation(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	pairs := [][2]*schema.Schema{
		{ps.Source1, ps.Target},
		{ps.Source2, ps.Target},
		{ps.Target, ps.Target}, // incremental same-schema revalidation
		{ps.Target, ps.Source1},
	}
	rng := rand.New(rand.NewSource(99))
	labels := []string{"shipTo", "billTo", "items", "item", "productName",
		"quantity", "USPrice", "shipDate", "name", "street", "city", "state",
		"zip", "country", "comment"}
	for _, pair := range pairs {
		src, dst := pair[0], pair[1]
		gen := wgen.NewGenerator(src, rng)
		base := baseline.New(dst)
		for _, opts := range []Options{{}, {DisableContentIDA: true}} {
			eng := MustNew(src, dst, opts)
			for i := 0; i < 40; i++ {
				doc, ok := gen.Document()
				if !ok {
					t.Fatal("generation failed")
				}
				tk := update.NewTracker(doc)
				applyRandomEdits(rng, tk, doc, labels, 1+rng.Intn(4))
				trie := tk.Finalize()

				_, wantErr := base.Validate(doc) // full validation of edited tree
				_, gotErr := eng.ValidateModified(doc, trie)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("opts %+v pair %s→%s: incremental=%v full=%v\ndoc=%s",
						opts, srcName(ps, src), srcName(ps, dst), gotErr, wantErr, doc)
				}
			}
		}
	}
}

func srcName(ps *wgen.PaperSchemas, s *schema.Schema) string {
	switch s {
	case ps.Source1:
		return "source1"
	case ps.Source2:
		return "source2"
	case ps.Target:
		return "target"
	}
	return "?"
}

// applyRandomEdits performs n random edits through the tracker. Edits that
// the tracker rejects (e.g. deleting the root) are retried with a different
// target.
func applyRandomEdits(rng *rand.Rand, tk *update.Tracker, doc *xmltree.Node, labels []string, n int) {
	var all []*xmltree.Node
	doc.Walk(func(nd *xmltree.Node) bool {
		all = append(all, nd)
		return true
	})
	for done := 0; done < n; {
		nd := all[rng.Intn(len(all))]
		var err error
		switch rng.Intn(4) {
		case 0:
			if nd.IsText() {
				err = tk.SetText(nd, "edited")
			} else {
				err = tk.Relabel(nd, labels[rng.Intn(len(labels))])
			}
		case 1:
			if nd.IsText() {
				continue
			}
			child := xmltree.NewElement(labels[rng.Intn(len(labels))])
			if rng.Intn(2) == 0 {
				child.AppendChild(xmltree.NewText("99"))
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

func TestModifiedRootInsertIsFullValidation(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	e := MustNew(ps.Source1, ps.Target, Options{})
	// A brand-new root marked as inserted: full validation path.
	doc := wgen.PODocument(wgen.PODocOptions{Items: 2, IncludeBillTo: true, Seed: 8})
	doc.Delta = xmltree.DeltaInsert
	trie := &update.Trie{}
	trie.Insert(nil)
	st, err := e.ValidateModified(doc, trie)
	if err != nil {
		t.Fatalf("inserted valid doc should pass: %v", err)
	}
	if st.FullValidations != 1 {
		t.Fatalf("expected exactly one full validation, got %s", st)
	}
}

func TestModifiedTextRootRejected(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	e := MustNew(ps.Source1, ps.Target, Options{})
	if _, err := e.ValidateModified(xmltree.NewText("x"), &update.Trie{}); err == nil {
		t.Fatal("text root must fail")
	}
	del := xmltree.NewElement("purchaseOrder")
	del.Delta = xmltree.DeltaDelete
	if _, err := e.ValidateModified(del, &update.Trie{}); err == nil {
		t.Fatal("deleted root must fail")
	}
}
