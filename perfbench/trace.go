package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Span names recorded by the traced run.
const (
	spanPut       = "session.put"
	spanROT       = "session.rot"
	spanWALAppend = "wal.append"
)

// span is one timed interval. Handler spans also carry their self time:
// the duration minus the outbound Calls the handler made.
type span struct {
	name       string
	start, end int64 // unix nanoseconds
	self       int64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	calls map[uint64]*time.Duration // goroutine -> time in outbound Calls
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<16), calls: map[uint64]*time.Duration{}}
}

func (t *tracer) span(name string, start, end time.Time, self time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, start.UnixNano(), end.UnixNano(), int64(self)})
	t.mu.Unlock()
}

// meanIn is the mean duration (or self time) of the named spans that
// started inside one of ivs, in microseconds.
func (t *tracer) meanIn(name string, ivs []interval, self bool) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, n float64
	for _, s := range t.spans {
		if s.name != name || !inside(ivs, s.start) {
			continue
		}
		d := s.end - s.start
		if self {
			d = s.self
		}
		sum += float64(d)
		n++
	}
	return ratio(sum, n) / 1e3
}

func inside(ivs []interval, t int64) bool {
	for _, iv := range ivs {
		if t >= iv.from && t < iv.to {
			return true
		}
	}
	return false
}

// write dumps every span as tab-separated name, start, duration and self
// time in nanoseconds.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", s.name, s.start, s.end-s.start, s.self)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid is the calling goroutine's id, parsed from its stack header. The
// handler and the Calls it makes run on one goroutine, which is how a
// Call's time is charged to the handler that made it.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// handlerSpanName caches "handler.<message type>" per message type.
var handlerSpanName sync.Map // reflect.Type -> string

func spanNameOf(m wire.Message) string {
	t := reflect.TypeOf(m)
	if n, ok := handlerSpanName.Load(t); ok {
		return n.(string)
	}
	name := t.String()
	if t.Kind() == reflect.Pointer {
		name = t.Elem().Name()
	}
	n, _ := handlerSpanName.LoadOrStore(t, "handler."+name)
	return n.(string)
}

// tracedNetwork wraps a transport.Network: every attached handler records a
// span per message with its self time, and the attached Node's Call charges
// its duration to the handler running on the calling goroutine.
type tracedNetwork struct {
	transport.Network
	tr *tracer
}

func (n *tracedNetwork) Attach(addr wire.Addr, h transport.Handler) (transport.Node, error) {
	node, err := n.Network.Attach(addr, transport.HandlerFunc(func(nd transport.Node, src wire.From, reqID uint64, m wire.Message) {
		name := spanNameOf(m)
		g := goid()
		var called time.Duration
		n.tr.mu.Lock()
		n.tr.calls[g] = &called
		n.tr.mu.Unlock()
		start := time.Now()
		h.Handle(nd, src, reqID, m)
		end := time.Now()
		n.tr.mu.Lock()
		delete(n.tr.calls, g)
		n.tr.mu.Unlock()
		n.tr.span(name, start, end, end.Sub(start)-called)
	}))
	if err != nil {
		return nil, err
	}
	return &tracedNode{Node: node, tr: n.tr}, nil
}

type tracedNode struct {
	transport.Node
	tr *tracer
}

func (n *tracedNode) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	start := time.Now()
	resp, err := n.Node.Call(ctx, dst, m)
	d := time.Since(start)
	g := goid()
	n.tr.mu.Lock()
	if c := n.tr.calls[g]; c != nil {
		*c += d
	}
	n.tr.mu.Unlock()
	return resp, err
}

// tracedWAL times every append to a write-ahead log, including the wait for
// the fsync that covers it.
type tracedWAL struct {
	wal.Durability
	tr *tracer
}

func (d *tracedWAL) Append(recs ...wal.Record) error {
	start := time.Now()
	err := d.Durability.Append(recs...)
	d.tr.span(spanWALAppend, start, time.Now(), 0)
	return err
}

func (d *tracedWAL) AppendSynced(recs []wal.Record, synced func(error)) error {
	start := time.Now()
	err := d.Durability.AppendSynced(recs, synced)
	d.tr.span(spanWALAppend, start, time.Now(), 0)
	return err
}
