package xmlscan

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"unicode/utf8"
)

// ErrSkimDepth reports a subtree that opened more simultaneous elements
// than SkimLimits.MaxOpen allows.
var ErrSkimDepth = errors.New("xmlscan: skim depth limit exceeded")

// ErrSkimElements reports a skim that pushed the document's element count
// past SkimLimits.MaxTotalElements.
var ErrSkimElements = errors.New("xmlscan: skim element limit exceeded")

// SkimLimits bounds one SkimSubtree call. BaseOpen identifies the subtree:
// skimming ends when fewer than BaseOpen elements remain open (i.e. the
// element that was innermost when the skim began has closed). The other
// fields carry the caller's resource-governance state into the skim so a
// hostile subtree cannot hide from depth or element limits; zero values
// are unlimited.
type SkimLimits struct {
	// BaseOpen is the scanner's Depth() when the skim begins.
	BaseOpen int
	// MaxOpen caps simultaneously open elements (absolute, whole
	// document); exceeding it stops the skim with ErrSkimDepth.
	MaxOpen int
	// MaxTotalElements caps the document's total element count. The skim
	// adds its own count to BaseElements for the check, and exceeding the
	// cap stops the skim with ErrSkimElements after counting the element
	// that crossed it.
	MaxTotalElements int64
	// BaseElements is the number of elements the caller had already
	// counted when the skim began.
	BaseElements int64
	// ChunkElements pauses the skim (Done=false) after counting this many
	// elements in one call, so the caller can amortize cancellation
	// checks; resume by calling SkimSubtree again with the same BaseOpen.
	ChunkElements int
}

// SkimResult reports what one SkimSubtree call consumed.
type SkimResult struct {
	// Elements is the number of element start tags consumed by this call.
	Elements int64
	// MaxOpen is the largest open-element count reached (absolute), 0 if
	// no element was opened.
	MaxOpen int
	// Done is true when the subtree has fully closed; false means the
	// call paused at ChunkElements and the skim must be resumed.
	Done bool
}

// SkimSubtree consumes the rest of the innermost open subtree — every
// event through the matching end tag — without producing events. The
// input is still held to full well-formedness (tag matching, attribute
// syntax, character range, entity validity), so skimming never accepts
// bytes the event path would reject; it only skips the per-event
// bookkeeping. This is the streaming analogue of the tree caster's
// skipped subtree: no validation work and no tokenizer calls for the
// common tokens, which skimWindow consumes straight from the read window.
//
// Each round runs skimWindow over the buffered bytes, then hands the one
// token it stopped at to the general per-token code (textRun, startTag,
// endTag, procInst, bang). Only that code reports errors, so error text
// and offsets are those of the token-by-token scan.
func (s *Scanner) SkimSubtree(lim SkimLimits) (SkimResult, error) {
	var res SkimResult
	if s.err != nil {
		return res, s.err
	}
	if s.pendingEnd && len(s.frames) >= lim.BaseOpen {
		// The subtree root itself was self-closing.
		s.pendingEnd = false
		top := s.frames[len(s.frames)-1]
		s.frames = s.frames[:len(s.frames)-1]
		s.names = s.names[:top.off]
	}
	for len(s.frames) >= lim.BaseOpen {
		if lim.ChunkElements > 0 && res.Elements >= int64(lim.ChunkElements) {
			return res, nil
		}
		s.skimWindow(&lim, &res)
		if len(s.frames) < lim.BaseOpen || lim.ChunkElements > 0 && res.Elements >= int64(lim.ChunkElements) {
			continue
		}
		if _, err := s.textRun(false); err != nil {
			s.err = err
			return res, err
		}
		b, ok := s.getc()
		if !ok {
			if s.readErr != io.EOF {
				s.err = s.readErr
				return res, s.err
			}
			s.err = s.syntaxf("unexpected EOF")
			return res, s.err
		}
		_ = b // always '<': textRun stops only there
		b, err := s.mustgetc()
		if err != nil {
			s.err = err
			return res, err
		}
		switch b {
		case '/':
			if _, err := s.endTag(); err != nil {
				return res, err
			}
		case '?':
			if err := s.procInst(); err != nil {
				s.err = err
				return res, err
			}
		case '!':
			isCData, err := s.bang()
			if err != nil {
				s.err = err
				return res, err
			}
			if isCData {
				if err := s.textInto(-1, true, false); err != nil {
					s.err = err
					return res, err
				}
			}
		default:
			s.ungetc()
			if _, err := s.startTag(); err != nil {
				return res, err
			}
			res.Elements++
			open := len(s.frames)
			if lim.MaxOpen > 0 && open > lim.MaxOpen {
				s.err = ErrSkimDepth
				return res, s.err
			}
			if lim.MaxTotalElements > 0 && lim.BaseElements+res.Elements > lim.MaxTotalElements {
				s.err = ErrSkimElements
				return res, s.err
			}
			if open > res.MaxOpen {
				res.MaxOpen = open
			}
			if s.pendingEnd {
				s.pendingEnd = false
				top := s.frames[len(s.frames)-1]
				s.frames = s.frames[:len(s.frames)-1]
				s.names = s.names[:top.off]
			}
		}
	}
	res.Done = true
	return res, nil
}

// skimStop marks the bytes that end skimWindow's text scan: '<' and every
// byte the character-data fast path leaves to textInto.
var skimStop = func() [256]bool {
	t := textSlow
	t['<'] = true
	return t
}()

// asciiNameStart is the ASCII part of the name-start class, and
// asciiNameRest the ASCII name bytes other than ':', as lookup tables.
var asciiNameStart, asciiNameRest = func() (first, rest [256]bool) {
	for b := 0; b < utf8.RuneSelf; b++ {
		rest[b] = isNameByte(byte(b)) && b != ':'
		first[b] = isNameByte(byte(b)) && !('0' <= b && b <= '9' || b == '.' || b == '-')
	}
	return
}()

// Word-at-a-time byte tests. On the low seven bits x of each byte of a
// little-endian word, x + (0x80-n) carries into the byte's top bit exactly
// when x >= n, and (x^c) + 0x7f does so exactly when x != c; neither sum
// carries into the next byte.
const (
	lsb = 0x0101010101010101 // the low bit of every byte
	msb = 0x8080808080808080 // the top bit of every byte
)

// skimWindow is SkimSubtree's hot loop. It walks the buffered window
// buf[pos:end] with a local index and consumes only tokens it can take
// whole without the general code: plain ASCII text, attribute-less ASCII
// start tags "<name>" and "<name/>" with at most one colon, and end tags
// naming the innermost open element byte for byte. It stops at the start
// of any other token — markup it does not parse, a byte textSlow flags, a
// mismatched end tag, a token running past the window edge — and before
// a start tag that would trip MaxOpen or MaxTotalElements, so the
// caller's per-token code meets that token exactly as it would without
// the fast loop. It also stops when the subtree closes and right after
// the start tag that fills the ChunkElements budget.
//
// Frames the loop opens keep their raw name in the window (off indexes
// buf) rather than the arena, so elements opened and closed within one
// window never copy their names; those still open on return are moved to
// the arena before anything can refill the window.
func (s *Scanner) skimWindow(lim *SkimLimits, res *SkimResult) {
	buf := s.buf[:s.end]
	i := s.pos
	win := len(s.frames) // s.frames[win:] name their tag in buf, not the arena
scan:
	for {
		// Text, a word at a time while eight bytes remain in the window:
		// ok keeps the top bit of each plain byte — ASCII, no control byte
		// but tab and newline, none of '<', '&', ']' — so its first clear
		// top bit is the first skimStop byte.
		for i+8 <= len(buf) {
			w := binary.LittleEndian.Uint64(buf[i:])
			x := w &^ msb
			ok := ^w & (x + (0x80-0x20)*lsb | (x+(0x80-'\t')*lsb)&^(x+(0x80-'\n'-1)*lsb)) &
				((x ^ '<'*lsb) + 0x7f*lsb) & ((x ^ '&'*lsb) + 0x7f*lsb) & ((x ^ ']'*lsb) + 0x7f*lsb)
			if stop := ^ok & msb; stop != 0 {
				i += bits.TrailingZeros64(stop) >> 3
				goto markup
			}
			i += 8
		}
		for uint(i) < uint(len(buf)) && !skimStop[buf[i]] {
			i++
		}
	markup:
		if i+1 >= len(buf) || buf[i] != '<' {
			break
		}
		if buf[i+1] == '/' {
			n := len(s.frames)
			if n == 0 {
				break
			}
			top := s.frames[n-1]
			j := i + 2 + top.n
			if j >= len(buf) || buf[j] != '>' {
				break
			}
			var name []byte
			if n > win {
				name = buf[top.off : top.off+top.n]
			} else {
				name = s.names[top.off : top.off+top.n]
			}
			if string(buf[i+2:j]) != string(name) {
				break
			}
			i = j + 1
			s.frames = s.frames[:n-1]
			if n <= win {
				win = n - 1
				s.names = s.names[:top.off]
			}
			if n-1 < lim.BaseOpen {
				break
			}
			continue
		}
		if !asciiNameStart[buf[i+1]] {
			break
		}
		// The name runs to the first non-name byte; ':' ends each segment
		// so the byte loop need not test for it.
		k, colon := i+1, -1
		for {
			for uint(k) < uint(len(buf)) && asciiNameRest[buf[k]] {
				k++
			}
			if k >= len(buf) || buf[k] != ':' {
				break
			}
			if colon >= 0 {
				break scan // second colon: malformed, startTag reports it
			}
			colon = k - i - 1
			k++
		}
		if k >= len(buf) {
			break
		}
		end := k + 1
		selfClosing := buf[k] == '/'
		if selfClosing {
			if k+1 >= len(buf) || buf[k+1] != '>' {
				break
			}
			end = k + 2
		} else if buf[k] != '>' {
			break
		}
		open := len(s.frames) + 1
		if lim.MaxOpen > 0 && open > lim.MaxOpen ||
			lim.MaxTotalElements > 0 && lim.BaseElements+res.Elements+1 > lim.MaxTotalElements {
			break // startTag counts it and reports the limit
		}
		res.Elements++
		res.MaxOpen = max(res.MaxOpen, open)
		if !selfClosing {
			n := k - i - 1
			local := 0
			if colon > 0 && colon < n-1 {
				local = colon + 1
			}
			s.frames = append(s.frames, nameFrame{off: i + 1, n: n, local: local})
		}
		i = end
		if res.Elements == int64(lim.ChunkElements) {
			break
		}
	}
	for f := win; f < len(s.frames); f++ {
		fr := &s.frames[f]
		off := len(s.names)
		s.names = append(s.names, buf[fr.off:fr.off+fr.n]...)
		fr.off = off
	}
	s.pos = i
}
