package xmlspace

import (
	"strings"
	"testing"
)

func TestOnlyFourBytesAreSpace(t *testing.T) {
	for b := 0; b < 256; b++ {
		want := b == ' ' || b == '\t' || b == '\n' || b == '\r'
		if Is(byte(b)) != want {
			t.Errorf("Is(%#x) = %v", b, !want)
		}
	}
}

func TestHelpers(t *testing.T) {
	cases := []struct {
		in    string
		blank bool
		trim  string
		field []string
	}{
		{"", true, "", nil},
		{" \t\r\n", true, "", nil},
		{"  a b\tc\n", false, "a b\tc", []string{"a", "b", "c"}},
		{" ", false, " ", []string{" "}},
		{"  5 ", false, " 5", []string{" 5"}},
		{"1\u00852", false, "1\u00852", []string{"1\u00852"}},
		{"\v\f", false, "\v\f", []string{"\v\f"}},
	}
	for _, c := range cases {
		if got := Blank(c.in); got != c.blank {
			t.Errorf("Blank(%q) = %v", c.in, got)
		}
		if got := Blank([]byte(c.in)); got != c.blank {
			t.Errorf("Blank([]byte %q) = %v", c.in, got)
		}
		if got := Trim(c.in); got != c.trim {
			t.Errorf("Trim(%q) = %q, want %q", c.in, got, c.trim)
		}
		if got := string(Trim([]byte(c.in))); got != c.trim {
			t.Errorf("Trim([]byte %q) = %q, want %q", c.in, got, c.trim)
		}
		var fields []string
		for f, rest := Field(c.in); len(f) > 0; f, rest = Field(rest) {
			fields = append(fields, f)
		}
		if strings.Join(fields, "|") != strings.Join(c.field, "|") || len(fields) != len(c.field) {
			t.Errorf("Field loop over %q = %q, want %q", c.in, fields, c.field)
		}
	}
}
