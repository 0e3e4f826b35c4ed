package xmlscan

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// tokenize runs the scanner over doc and flattens the result: one
// "s:name"/"e:name" entry per element event, all text concatenated, and
// the terminal error (nil on clean EOF).
func tokenize(doc string) (events []string, text string, err error) {
	s := NewScanner(strings.NewReader(doc))
	var sb strings.Builder
	for {
		ev, err := s.Next()
		switch ev {
		case EventStart:
			events = append(events, "s:"+string(s.Name()))
		case EventEnd:
			events = append(events, "e:"+string(s.Name()))
		case EventText:
			sb.Write(s.Text())
		case EventEOF:
			return events, sb.String(), err
		}
	}
}

// tokenizeStd flattens an encoding/xml token stream the same way.
func tokenizeStd(doc string) (events []string, text string, err error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	var sb strings.Builder
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return events, sb.String(), nil
		}
		if err != nil {
			return events, sb.String(), err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			events = append(events, "s:"+t.Name.Local)
		case xml.EndElement:
			events = append(events, "e:"+t.Name.Local)
		case xml.CharData:
			sb.Write(t)
		}
	}
}

// differentialCases covers the grammar the scanner must agree with
// encoding/xml on: verdict, element events, and decoded text.
var differentialCases = []string{
	// Plain structure.
	`<a/>`,
	`<a></a>`,
	`<a><b/><c></c></a>`,
	`<a>text</a>`,
	`<root xmlns="http://x">ok</root>`,
	"  \n\t<a/>\n  ",
	// Attributes.
	`<a x="1" y='2'/>`,
	`<a x="a&amp;b"/>`,
	`<a x="tab&#9;end"/>`,
	`<a x="br]]>ok"/>`, // ]]> is legal inside quoted values
	`<a x = "spaced" />`,
	`<a x="multi
line"/>`,
	// Entities and character references.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#65;&#x42;</a>`,
	`<a>&#xD800;</a>`, // surrogate ref decodes to U+FFFD, accepted
	`<a>&#0;</a>`,     // decodes to NUL, rejected by the char range
	`<a>&#x110000;</a>`,
	`<a>&bogus;</a>`,
	`<a>&lt</a>`,
	`<a>&;</a>`,
	`<a>&#;</a>`,
	`<a>&#xZZ;</a>`,
	// CDATA.
	`<a><![CDATA[<not><parsed>&amp;]]></a>`,
	`<a><![CDATA[]]></a>`,
	`<a><![CDATA[a]]b]]></a>`,
	`<a><![CDATA[unterminated</a>`,
	`<a><![CDAT[x]]></a>`,
	// Comments, PIs, directives.
	`<!-- c --><a/><!-- d -->`,
	`<a><!-- inner --></a>`,
	`<a><!-- -- --></a>`, // "--" inside a comment is malformed
	`<?xml version="1.0"?><a/>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="2.0"?><a/>`,
	`<?xml encoding="latin1"?><a/>`,
	`<?pi anything ?'" here?><a/>`,
	`<!DOCTYPE doc [<!ELEMENT doc (#PCDATA)>]><doc/>`,
	`<!DOCTYPE doc [<!-- a > comment --> ]><doc/>`,
	`<!DOCTYPE d "un>balanced quotes"><d/>`,
	// Line endings and character range.
	"<a>line1\r\nline2\rline3</a>",
	"<a>ok\ttab</a>",
	"<a>bad\x01char</a>",
	"<a>bad\xffutf8</a>",
	"<a>\xc3\xa9</a>", // valid two-byte UTF-8
	// Namespace-shaped names.
	`<p:a></p:a>`,
	`<p:a></q:a>`,
	`<a:b:c/>`,
	`<:a/>`,
	`<a:/>`,
	// Malformed structure.
	`<a><b></a></b>`,
	`</a>`,
	`<a>`,
	`<a><b>`,
	`<a/><a/>`, // two roots: fine at token level
	`<a/>trailing`,
	`<a/>  `,
	`<a]]></a>`,
	`<a>]]></a>`,
	`<a x=1/>`,
	`<a x/>`,
	`<a x="unterminated></a>`,
	`<a x="lt<bad"/>`,
	`<1a/>`,
	`<a !></a>`,
	`<a`,
	`<`,
	``,
	`garbage only`,
	"\xff\xfe\x00<not xml",
}

func TestScannerMatchesEncodingXML(t *testing.T) {
	for _, doc := range differentialCases {
		ev, text, err := tokenize(doc)
		evStd, textStd, errStd := tokenizeStd(doc)
		if (err == nil) != (errStd == nil) {
			t.Errorf("%q: verdict mismatch: scanner err=%v, encoding/xml err=%v", doc, err, errStd)
			continue
		}
		if err != nil {
			continue // both rejected; messages are allowed to differ
		}
		if fmt.Sprint(ev) != fmt.Sprint(evStd) {
			t.Errorf("%q: events %v, want %v", doc, ev, evStd)
		}
		if text != textStd {
			t.Errorf("%q: text %q, want %q", doc, text, textStd)
		}
	}
}

func TestScannerSkipsLeadingBOM(t *testing.T) {
	ev, text, err := tokenize("\xef\xbb\xbf<a>x</a>")
	if err != nil {
		t.Fatalf("BOM document rejected: %v", err)
	}
	if fmt.Sprint(ev) != "[s:a e:a]" || text != "x" {
		t.Fatalf("BOM document tokenized as %v / %q", ev, text)
	}
	// Only the very first bytes are a BOM; elsewhere U+FEFF is text.
	_, text, err = tokenize("<a>\xef\xbb\xbfx</a>")
	if err != nil || text != "\uFEFFx" {
		t.Fatalf("interior BOM: text %q err %v", text, err)
	}
}

func TestScannerErrorsAreSyntaxErrors(t *testing.T) {
	for _, doc := range []string{`<a><b></a></b>`, `</a>`, `<a>&bogus;</a>`, `<a>`} {
		_, _, err := tokenize(doc)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: error %v is not a *SyntaxError", doc, err)
		}
	}
}

func TestScannerStickyError(t *testing.T) {
	s := NewScanner(strings.NewReader(`</a>`))
	_, err1 := s.Next()
	_, err2 := s.Next()
	if err1 == nil || err1 != err2 {
		t.Fatalf("sticky error broken: first %v, second %v", err1, err2)
	}
}

type errReader struct {
	data string
	err  error
	done bool
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, r.err
	}
	r.done = true
	return copy(p, r.data), nil
}

func TestScannerSurfacesReaderError(t *testing.T) {
	boom := errors.New("boom")
	s := NewScanner(&errReader{data: `<a><b>text`, err: boom})
	for {
		_, err := s.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("reader error lost: got %v", err)
			}
			return
		}
	}
}

// advanceTo drives s until the start event for the named element.
func advanceTo(t *testing.T, s *Scanner, name string) {
	t.Helper()
	for {
		ev, err := s.Next()
		if err != nil || ev == EventEOF {
			t.Fatalf("never reached <%s>: ev=%v err=%v", name, ev, err)
		}
		if ev == EventStart && string(s.Name()) == name {
			return
		}
	}
}

func TestSkimSubtree(t *testing.T) {
	doc := `<r><keep>1</keep><skip a="v"><x><!-- c --><y>t</y><![CDATA[<raw>]]></x><z/></skip><after/></r>`
	s := NewScanner(strings.NewReader(doc))
	advanceTo(t, s, "skip")
	res, err := s.SkimSubtree(SkimLimits{BaseOpen: s.Depth()})
	if err != nil {
		t.Fatalf("skim: %v", err)
	}
	if !res.Done || res.Elements != 3 {
		t.Fatalf("skim result %+v, want Done with 3 elements (x, y, z)", res)
	}
	if res.MaxOpen != 4 { // r, skip, x, y
		t.Fatalf("skim MaxOpen %d, want 4", res.MaxOpen)
	}
	// The next event must be <after/> at depth 1.
	ev, err := s.Next()
	if err != nil || ev != EventStart || string(s.Name()) != "after" {
		t.Fatalf("after skim: ev=%v name=%q err=%v", ev, s.Name(), err)
	}
}

func TestSkimSubtreeSelfClosing(t *testing.T) {
	s := NewScanner(strings.NewReader(`<r><skip/><after/></r>`))
	advanceTo(t, s, "skip")
	res, err := s.SkimSubtree(SkimLimits{BaseOpen: s.Depth()})
	if err != nil || !res.Done || res.Elements != 0 {
		t.Fatalf("self-closing skim: %+v err=%v", res, err)
	}
	ev, err := s.Next()
	if err != nil || ev != EventStart || string(s.Name()) != "after" {
		t.Fatalf("after skim: ev=%v name=%q err=%v", ev, s.Name(), err)
	}
}

func TestSkimSubtreeChunked(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<r><skip>`)
	for i := 0; i < 10; i++ {
		sb.WriteString(`<item x="1">v</item>`)
	}
	sb.WriteString(`</skip></r>`)
	s := NewScanner(strings.NewReader(sb.String()))
	advanceTo(t, s, "skip")
	base := s.Depth()
	var total int64
	calls := 0
	for {
		res, err := s.SkimSubtree(SkimLimits{BaseOpen: base, ChunkElements: 3})
		if err != nil {
			t.Fatalf("chunked skim: %v", err)
		}
		total += res.Elements
		calls++
		if res.Done {
			break
		}
		if res.Elements != 3 {
			t.Fatalf("chunk consumed %d elements, want 3", res.Elements)
		}
	}
	if total != 10 || calls != 5 { // 3+3+3+1(+final empty Done)… 4 chunks reach 10, 4th is Done
		if total != 10 {
			t.Fatalf("chunked skim counted %d elements, want 10", total)
		}
	}
}

func TestSkimSubtreeLimits(t *testing.T) {
	deep := `<r><skip>` + strings.Repeat(`<d>`, 50) + strings.Repeat(`</d>`, 50) + `</skip></r>`
	s := NewScanner(strings.NewReader(deep))
	advanceTo(t, s, "skip")
	res, err := s.SkimSubtree(SkimLimits{BaseOpen: s.Depth(), MaxOpen: 10})
	if !errors.Is(err, ErrSkimDepth) {
		t.Fatalf("deep skim: err=%v, want ErrSkimDepth", err)
	}
	if res.MaxOpen > 10 {
		t.Fatalf("recorded MaxOpen %d ignores the limit 10", res.MaxOpen)
	}

	wide := `<r><skip>` + strings.Repeat(`<i/>`, 50) + `</skip></r>`
	s = NewScanner(strings.NewReader(wide))
	advanceTo(t, s, "skip")
	res, err = s.SkimSubtree(SkimLimits{BaseOpen: s.Depth(), MaxTotalElements: 20, BaseElements: 2})
	if !errors.Is(err, ErrSkimElements) {
		t.Fatalf("wide skim: err=%v, want ErrSkimElements", err)
	}
	if res.Elements != 19 { // 2 base + 19th crossed 20? count fires after counting the crosser: 2+18=20 ok, 2+19=21 > 20
		t.Fatalf("wide skim counted %d elements before stopping, want 19", res.Elements)
	}
}

func TestSkimSubtreeRejectsMalformedInterior(t *testing.T) {
	for _, doc := range []string{
		`<r><skip><a></b></skip></r>`,
		`<r><skip><a>&bad;</a></skip></r>`,
		`<r><skip><a x=nope/></skip></r>`,
		`<r><skip>]]></skip></r>`,
		`<r><skip><a>`,
	} {
		s := NewScanner(strings.NewReader(doc))
		advanceTo(t, s, "skip")
		if _, err := s.SkimSubtree(SkimLimits{BaseOpen: s.Depth()}); err == nil {
			t.Errorf("%q: skim accepted a malformed subtree", doc)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	for i := 0; i < 100; i++ {
		s := Get(strings.NewReader(`<a x="1">text</a>`))
		for {
			ev, err := s.Next()
			if err != nil {
				t.Fatalf("pooled scan: %v", err)
			}
			if ev == EventEOF {
				break
			}
		}
		s.Release()
	}
}

// skimOutcome skims the subtree of the first <skip> element of doc, read
// through r, calling SkimSubtree until it finishes or fails, and renders
// each call's result, the error with the scanner's offset, and the event
// that follows the skim.
func skimOutcome(t *testing.T, r io.Reader, lim SkimLimits) string {
	t.Helper()
	s := NewScanner(r)
	advanceTo(t, s, "skip")
	lim.BaseOpen = s.Depth()
	var b strings.Builder
	for {
		res, err := s.SkimSubtree(lim)
		fmt.Fprintf(&b, "%d/%d/%t ", res.Elements, res.MaxOpen, res.Done)
		if err != nil {
			fmt.Fprintf(&b, "error %q at %d", err, s.InputOffset())
			return b.String()
		}
		lim.BaseElements += res.Elements
		if res.Done {
			break
		}
	}
	ev, err := s.Next()
	switch ev {
	case EventStart:
		fmt.Fprintf(&b, "then start %q", s.Name())
	case EventEnd:
		fmt.Fprintf(&b, "then end %q", s.Name())
	case EventText:
		fmt.Fprintf(&b, "then text %q", s.Text())
	default:
		fmt.Fprintf(&b, "then EOF %v", err)
	}
	return b.String()
}

// acrossWindow places markup so that it straddles the end of the
// scanner's first read window: the subtree opens, plain text fills the
// window up to two bytes before its end, and markup follows.
func acrossWindow(markup string) string {
	const open = `<r><skip><x>`
	return open + strings.Repeat("t", defaultBufSize-2-len(open)) + markup + `</skip><after/></r>`
}

// TestSkimHandoff pins SkimSubtree at every point where its window loop
// hands a token to the per-token code: names it does not take, attributes,
// text needing decoding, markup other than tags, tokens across the window
// edge, limits and chunk pauses. Every reader must give the same calls,
// the same error text and offset, and the same following event; the
// wants are what a skim taking every token through the per-token code
// reports.
func TestSkimHandoff(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		lim  SkimLimits
		want string
	}{
		{"two colons", `<r><skip><x><a:b:c/></x></skip></r>`, SkimLimits{},
			`1/3/false error "XML syntax error at byte 18: expected element name after <" at 18`},
		{"leading colon", `<r><skip><x><:a>t</:a></x></skip><after/></r>`, SkimLimits{},
			`2/4/true then start "after"`},
		{"trailing colon", `<r><skip><x><a:>t</a:></x></skip><after/></r>`, SkimLimits{},
			`2/4/true then start "after"`},
		{"prefixed", `<r><skip><p:a><p:b/>t</p:a></skip><after/></r>`, SkimLimits{},
			`2/4/true then start "after"`},
		{"non-ASCII name", "<r><skip><x><é>t</é></x></skip><after/></r>", SkimLimits{},
			`2/4/true then start "after"`},
		{"invalid UTF-8 name", "<r><skip><x><a\xff>t</a\xff></x></skip></r>", SkimLimits{},
			`1/3/false error "XML syntax error at byte 15: invalid XML name: a\xff" at 15`},
		{"digit name", `<r><skip><x><1a/></x></skip></r>`, SkimLimits{},
			`1/3/false error "XML syntax error at byte 15: invalid XML name: 1a" at 15`},
		{"attributes", `<r><skip><x a="1"><y b='2'/></x></skip><after/></r>`, SkimLimits{},
			`2/4/true then start "after"`},
		{"unquoted attribute", `<r><skip><x a=1></x></skip></r>`, SkimLimits{},
			`0/0/false error "XML syntax error at byte 15: unquoted or missing attribute value in element" at 15`},
		{"space in start tag", `<r><skip><x >t</x><y /></skip><after/></r>`, SkimLimits{},
			`2/3/true then start "after"`},
		{"space in end tag", `<r><skip><x>t</x ></skip><after/></r>`, SkimLimits{},
			`1/3/true then start "after"`},
		{"mismatched end tag", `<r><skip><x>t</y></skip></r>`, SkimLimits{},
			`1/3/false error "XML syntax error at byte 17: element <x> closed by </y>" at 17`},
		{"end tag prefix of name", `<r><skip><xy>t</x></skip></r>`, SkimLimits{},
			`1/3/false error "XML syntax error at byte 18: element <xy> closed by </x>" at 18`},
		{"CRLF", "<r><skip><x>a\r\nb</x>\r\n</skip><after/></r>", SkimLimits{},
			`1/3/true then start "after"`},
		{"entity", `<r><skip><x>a&amp;b</x></skip><after/></r>`, SkimLimits{},
			`1/3/true then start "after"`},
		{"bad entity", `<r><skip><x>a&bogus;b</x></skip></r>`, SkimLimits{},
			`1/3/false error "XML syntax error at byte 20: invalid character entity" at 20`},
		{"bracket", `<r><skip><x>a]b</x></skip><after/></r>`, SkimLimits{},
			`1/3/true then start "after"`},
		{"CDATA end in text", `<r><skip><x>a]]>b</x></skip></r>`, SkimLimits{},
			`1/3/false error "XML syntax error at byte 16: unescaped ]]> not in CDATA section" at 16`},
		{"control character", "<r><skip><x>a\x01b</x></skip></r>", SkimLimits{},
			`1/3/false error "XML syntax error at byte 15: illegal character code U+0001" at 15`},
		{"markup", `<r><skip><x><![CDATA[<y>]]></x><!-- c --><?pi d?><z/></skip><after/></r>`, SkimLimits{},
			`2/3/true then start "after"`},
		{"EOF", `<r><skip><x>t</x>`, SkimLimits{},
			`1/3/false error "XML syntax error at byte 17: unexpected EOF" at 17`},
		{"start tag across window", acrossWindow(`<item>v</item></x>`), SkimLimits{},
			`2/4/true then start "after"`},
		{"end tag across window", acrossWindow(`</x>`), SkimLimits{},
			`1/3/true then start "after"`},
		{"self-closing across window", acrossWindow(`<i/></x>`), SkimLimits{},
			`2/4/true then start "after"`},
		{"text across window", acrossWindow(`tt</x>`), SkimLimits{},
			`1/3/true then start "after"`},
		{"MaxOpen", `<r><skip><a><b><c/></b></a></skip></r>`, SkimLimits{MaxOpen: 4},
			`3/4/false error "xmlscan: skim depth limit exceeded" at 19`},
		{"MaxTotalElements", `<r><skip>` + strings.Repeat(`<i/>`, 10) + `</skip></r>`,
			SkimLimits{MaxTotalElements: 7, BaseElements: 2},
			`6/3/false error "xmlscan: skim element limit exceeded" at 33`},
		{"chunk pause", `<r><skip>` + strings.Repeat(`<i>v</i>`, 10) + `</skip><after/></r>`,
			SkimLimits{ChunkElements: 3},
			`3/3/false 3/3/false 3/3/false 1/3/true then start "after"`},
		{"chunk pause self-closing", `<r><skip><a>` + strings.Repeat(`<i/>`, 7) + `</a></skip><after/></r>`,
			SkimLimits{ChunkElements: 3},
			`3/4/false 3/4/false 2/4/true then start "after"`},
		{"self-closing root", `<r><skip/><after/></r>`, SkimLimits{},
			`0/0/true then start "after"`},
	}
	for _, tc := range cases {
		readers := map[string]func() io.Reader{
			"whole":   func() io.Reader { return strings.NewReader(tc.doc) },
			"onebyte": func() io.Reader { return iotest.OneByteReader(strings.NewReader(tc.doc)) },
			"edge":    func() io.Reader { return &edgeReader{data: []byte(tc.doc)} },
		}
		for rname, r := range readers {
			if got := skimOutcome(t, r(), tc.lim); got != tc.want {
				t.Errorf("%s, %s reader:\n got %s\nwant %s", tc.name, rname, got, tc.want)
			}
		}
	}
}

// TestXMLDeclaration pins the declaration checks' verdicts and error
// text. The checks read the pseudo-attributes in place; the stream
// package's TestCastCheckAllocs holds a declared document to zero
// allocations.
func TestXMLDeclaration(t *testing.T) {
	for doc, want := range map[string]string{
		`<?xml version="1.0" encoding="UTF-8"?><a/>`:  "",
		`<?xml version='1.0' encoding='utf-8' ?><a/>`: "",
		`<?xml version="" encoding=""?><a/>`:          "",
		`<?xml version="2.0"?><a/>`:                   `unsupported version "2.0"; only version 1.0 is supported`,
		`<?xml version="1.0" encoding="latin1"?><a/>`: `encoding "latin1" declared but only UTF-8 is supported`,
	} {
		_, _, err := tokenize(doc)
		if got := fmt.Sprint(err); want == "" && err != nil || want != "" && !strings.Contains(got, want) {
			t.Errorf("%s: error %v, want %q", doc, err, want)
		}
	}
}

// edgeReader hands out its data in short reads of varying length, so the
// scanner's window ends at a different place inside the tokens on every
// fill.
type edgeReader struct {
	data  []byte
	calls int
}

func (r *edgeReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.calls++
	n := min(len(p), len(r.data), 1+r.calls*7%13)
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// attrList renders the attributes the last start tag captured as
// "raw|local|value" entries.
func attrList(s *Scanner) []string {
	var out []string
	for i := 0; i < s.NumAttrs(); i++ {
		name, local, value := s.Attr(i)
		out = append(out, fmt.Sprintf("%s|%s|%s", name, name[local:], value))
	}
	return out
}

// TestCaptureAttrs pins attribute capture: raw names with their local
// part, decoded values (references, CRLF, single quotes), a fresh list per
// start tag, and no capture before CaptureAttrs or after Reset.
func TestCaptureAttrs(t *testing.T) {
	doc := "<p:a xmlns:p=\"urn:p\" p:b='x&amp;&#x41;' c=\"1\r\n2\"><d/><e :f=\"\" g:=\"v\"/></p:a>"
	for name, r := range map[string]io.Reader{
		"whole":   strings.NewReader(doc),
		"onebyte": iotest.OneByteReader(strings.NewReader(doc)),
	} {
		s := Get(r)
		s.CaptureAttrs()
		var got []string
		for {
			ev, err := s.Next()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ev == EventEOF {
				break
			}
			if ev == EventStart {
				got = append(got, fmt.Sprintf("%s%q", s.Name(), attrList(s)))
			}
		}
		want := []string{
			`a["xmlns:p|p|urn:p" "p:b|b|x&A" "c|c|1\n2"]`,
			`d[]`,
			`e[":f|:f|" "g:|g:|v"]`,
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s reader:\n got %v\nwant %v", name, got, want)
		}
		s.Release()
	}
	s := NewScanner(strings.NewReader(`<a b="1"/>`))
	if ev, _ := s.Next(); ev != EventStart || s.NumAttrs() != 0 {
		t.Fatalf("captured %d attributes without CaptureAttrs", s.NumAttrs())
	}
	s.CaptureAttrs()
	s.Reset(strings.NewReader(`<a b="1"/>`))
	if ev, _ := s.Next(); ev != EventStart || s.NumAttrs() != 0 {
		t.Fatalf("capture survived Reset: %d attributes", s.NumAttrs())
	}
}
