// Package xmlspace defines XML whitespace once for every package that
// tests or strips it. XML 1.0 production [3] (S ::= (#x20 | #x9 | #xD |
// #xA)+) and the XSD whiteSpace facet both name exactly these four bytes;
// other Unicode spaces (U+00A0, U+0085, U+2028, ...) are ordinary
// character data. The helpers work on strings and byte slices alike and
// never allocate.
package xmlspace

// Is reports whether b is one of the four XML whitespace bytes.
func Is(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// Blank reports whether s consists of XML whitespace only (an empty s is
// blank).
func Blank[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if !Is(s[i]) {
			return false
		}
	}
	return true
}

// Trim returns s without leading and trailing XML whitespace.
func Trim[T string | []byte](s T) T {
	i, j := 0, len(s)
	for i < j && Is(s[i]) {
		i++
	}
	for j > i && Is(s[j-1]) {
		j--
	}
	return s[i:j]
}

// Field splits off the first XML-whitespace-separated field of s and
// returns it with the remainder. field is empty exactly when s is blank,
// so a loop over Field visits what strings.Fields would return, split on
// XML whitespace only:
//
//	for f, rest := Field(s); len(f) > 0; f, rest = Field(rest) { ... }
func Field[T string | []byte](s T) (field, rest T) {
	i := 0
	for i < len(s) && Is(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !Is(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}
