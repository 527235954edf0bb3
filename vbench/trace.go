package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one operation share op; parent indexes the span that
// caused this one (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id.
func (t *tracer) newOp() int64 {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its handle (-1 when not tracing).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil || !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(name string, parent int32, op int64, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// module is the layer a span belongs to: the first dotted component.
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per module, the mean self time in microseconds of
// its spans: each span's duration minus the part of that interval its
// child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	total := make(map[string]float64)
	count := make(map[string]int)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[int32(i)], s.Start, s.End)
		m := module(s.Name)
		total[m] += float64(self) / 1e3
		count[m]++
	}
	out := make(map[string]float64, len(total))
	for m, v := range total {
		out[m] = v / float64(count[m])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%d spans)", path, n), nil
}
