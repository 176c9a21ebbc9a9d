package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented).
type span struct {
	parent     int
	name       string
	start, end int64 // ns since the log's base
	arrivals   int
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay only a nil check per call site.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.base))
}

// add records a finished span and returns its id (0 on a nil log). Ids
// start at 1; parent 0 means a root span.
func (l *spanLog) add(name string, parent int, start, end int64, arrivals int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{parent: parent, name: name, start: start, end: end, arrivals: arrivals})
	return len(l.spans)
}

// end sets span id's end to now, for spans recorded before their children.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := l.now()
	l.mu.Lock()
	l.spans[id-1].end = now
	l.mu.Unlock()
}

// write dumps the spans as CSV (id,parent,name,start_ns,end_ns,arrivals).
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,arrivals")
	l.mu.Lock()
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", i+1, s.parent, s.name, s.start, s.end, s.arrivals)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
