package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent is -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
}

// spanLog keeps the benchmark's spans in memory; write dumps them at the
// end of a traced run. The program under test records nothing: every span
// wraps a call the benchmark makes into a layer's public function.
//
// Some children are replays: the round trip to castd is one span, and the
// in-process handler, registry lookup and stream cast on the same document
// are timed after it as its children. Self time therefore subtracts the
// children's durations, not the part of the parent's interval they cover.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) begin(name string, parent int32) int32 {
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

func (l *spanLog) end(id int32) {
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// timed runs fn inside a span and returns the span's id and duration.
func (l *spanLog) timed(name string, parent int32, fn func()) (int32, time.Duration) {
	id := l.begin(name, parent)
	fn()
	l.end(id)
	return id, l.dur(id)
}

func (l *spanLog) dur(id int32) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans[id]
	return time.Duration(s.End - s.Start)
}

// self returns a span's duration minus its children's durations.
func (l *spanLog) self(id int32, children ...int32) time.Duration {
	d := l.dur(id)
	for _, c := range children {
		d -= l.dur(c)
	}
	return d
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
