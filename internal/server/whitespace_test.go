package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	revalidate "repro"
	"repro/internal/registry"
	"repro/internal/wgen"
)

// TestNonXMLWhitespaceRejected pins XML whitespace to its four bytes
// (#x20, #x9, #xD, #xA; XML 1.0 production [3] and the XSD whiteSpace
// facet). A no-break space between elements is character data under
// element-only content, and one inside a quantity is part of the value,
// so every verdict path must reject both documents on the Experiment 2
// pair: streaming full validation, streaming cast, tree full validation,
// tree cast and castd's /cast handler.
func TestNonXMLWhitespaceRejected(t *testing.T) {
	srcXSD, dstXSD := wgen.Figure2XSD(false, 200), wgen.Figure2XSD(false, 100)
	u := revalidate.NewUniverse()
	src, err := u.LoadXSDString(srcXSD)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := u.LoadXSDString(dstXSD)
	if err != nil {
		t.Fatal(err)
	}
	treeCast, streamCast, err := revalidate.NewCasterPair(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, registry.Config{})
	for id, text := range map[string]string{"src": srcXSD, "dst": dstXSD} {
		if code, body := do(t, "PUT", ts.URL+"/schemas/"+id, text); code != 200 {
			t.Fatalf("register %s: %d %s", id, code, body)
		}
	}

	valid := string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: true, MaxQuantity: 99, Seed: 1})))
	docs := map[string]string{
		"valid": valid,
		// A no-break space (U+00A0) between <items> and its first <item>.
		"nbsp-between-elements": strings.Replace(valid, "<items>", "<items>\u00a0", 1),
		// The same, written as a character reference.
		"nbsp-ref-between-elements": strings.Replace(valid, "<items>", "<items>&#xA0;", 1),
		// A no-break space leading a quantity value.
		"nbsp-in-value": replaceQuantity(t, valid, "&#xA0;5"),
	}
	for name, doc := range docs {
		want := name == "valid"
		verdicts := map[string]bool{}
		_, err := dst.ValidateStream(strings.NewReader(doc))
		verdicts["stream-full"] = err == nil
		_, err = streamCast.Validate(strings.NewReader(doc))
		verdicts["stream-cast"] = err == nil
		parsed, err := revalidate.ParseDocumentString(doc)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		_, err = dst.ValidateFull(parsed)
		verdicts["tree-full"] = err == nil
		verdicts["tree-cast"] = treeCast.Validate(parsed) == nil
		code, body := do(t, "POST", ts.URL+"/cast/src/dst", doc)
		if code != 200 {
			t.Fatalf("%s: /cast: %d %s", name, code, body)
		}
		var v struct {
			Valid bool `json:"valid"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("%s: /cast body %s: %v", name, body, err)
		}
		verdicts["castd"] = v.Valid
		for path, got := range verdicts {
			if got != want {
				t.Errorf("%s via %s: valid=%v, want %v", name, path, got, want)
			}
		}
	}
}

// replaceQuantity rewrites the first quantity value of doc.
func replaceQuantity(t *testing.T, doc, value string) string {
	t.Helper()
	b := []byte(doc)
	open := bytes.Index(b, []byte("<quantity>"))
	end := bytes.Index(b, []byte("</quantity>"))
	if open < 0 || end < open {
		t.Fatal("document has no quantity")
	}
	return doc[:open+len("<quantity>")] + value + doc[end:]
}
