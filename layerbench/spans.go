package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/asrank-go/asrank/internal/trace"
)

// span is one benchmark-owned span: a timed call into a public entry
// point, or a program span imported from a trace.Capture. op groups the
// spans of one unit of work (a pass, an epoch, a request) under one
// trace ID.
type span struct {
	name          string
	id, parent    uint64
	op            uint64
	lane          uint64
	start, end    time.Time
	fromCommitRep bool // timed by stream.CommitReport, laid out in phase order
}

// recorder keeps spans in memory until the run ends. It never looks up
// goroutine IDs: each caller names its lane (the goroutine issuing the
// calls), so a span costs one mutex-guarded append. A nil *recorder
// records nothing.
type recorder struct {
	runID string
	trace [8]byte // high half of every trace ID, from the run ID

	mu    sync.Mutex
	next  uint64
	ops   uint64
	spans []span
}

// maxSpans bounds the in-memory trace of one run; spans beyond it are
// not kept.
const maxSpans = 1 << 18

func newRecorder(runID string) *recorder {
	r := &recorder{runID: runID}
	h := fnv.New64a()
	h.Write([]byte(runID))
	binary.BigEndian.PutUint64(r.trace[:], h.Sum64())
	return r
}

// newOp allocates the trace ID of one unit of work.
func (r *recorder) newOp() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// newID allocates a span ID ahead of the span's end, so children can
// name their parent before it is recorded.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a completed span.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	}
}

// timed runs fn as a span named name under parent and returns its
// duration; it times fn whether or not r records.
func (r *recorder) timed(name string, op, parent, lane uint64, fn func()) time.Duration {
	id := r.newID()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(span{name: name, id: id, parent: parent, op: op, lane: lane, start: t0, end: t1})
	return t1.Sub(t0)
}

// importCapture adds the program's own spans from a trace capture. The
// capture's root span (the one the benchmark opened to switch tracing
// on) is replaced by root; every other top-level program span is
// re-parented to the innermost benchmark span of the same op whose
// interval contains it, so layer self time never counts it twice.
func (r *recorder) importCapture(spans []*trace.Span, capRoot *trace.Span, root, op uint64) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var mine []span
	for _, s := range r.spans {
		if s.op == op {
			mine = append(mine, s)
		}
	}
	ids := map[uint64]uint64{capRoot.ID: root}
	for _, s := range spans {
		if s != capRoot {
			r.next++
			ids[s.ID] = r.next
		}
	}
	var out []span
	for _, s := range spans {
		if s == capRoot {
			continue
		}
		parent, ok := ids[s.Parent]
		start, end := s.Start, s.Start.Add(s.Dur)
		if !ok || parent == root {
			parent = root
			best := time.Duration(-1)
			for _, m := range mine {
				if !m.start.After(start) && !m.end.Before(end) && (best < 0 || m.end.Sub(m.start) < best) {
					parent, best = m.id, m.end.Sub(m.start)
				}
			}
		}
		sp := span{name: s.Name, id: ids[s.ID], parent: parent, op: op, lane: 1000 + s.Goroutine, start: start, end: end}
		out = append(out, sp)
		if len(r.spans) < maxSpans {
			r.spans = append(r.spans, sp)
		}
	}
	return out
}

// all returns the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime sums, per layer, each span's duration minus the part of its
// interval covered by its children.
func selfTime(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.end.Sub(s.start) - covered(s, children[s.id])
		out[layerOf(s.name)] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	return total + cur.b.Sub(cur.a)
}

// layerOf is a span name's namespace: its text up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// setSelfTimes reports self time per layer, per traced op.
func (r *recorder) setSelfTimes(res *result, tracedOps int) {
	if r == nil || tracedOps == 0 {
		return
	}
	self := selfTime(r.all())
	for _, l := range selfLayers {
		res.set("self."+l+"_us", us(self[l])/float64(tracedOps))
	}
}

// writeChrome writes the recorded spans as Chrome trace_event JSON,
// checked with trace.CheckChrome before it is written.
func (r *recorder) writeChrome(path string) error {
	spans := r.all()
	conv := make([]*trace.Span, 0, len(spans))
	for _, s := range spans {
		var id trace.TraceID
		copy(id[:8], r.trace[:])
		binary.BigEndian.PutUint64(id[8:], s.op)
		ts := &trace.Span{
			Name: s.name, Trace: id, ID: s.id, Parent: s.parent,
			Goroutine: s.lane, Start: s.start, Dur: s.end.Sub(s.start),
			Attrs: []trace.Attr{trace.String("run", r.runID)},
		}
		if s.fromCommitRep {
			ts.Attrs = append(ts.Attrs, trace.String("timed_by", "stream.CommitReport"))
		}
		conv = append(conv, ts)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, conv); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := trace.CheckChrome(buf.Bytes()); err != nil {
		return fmt.Errorf("trace fails its schema check: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
