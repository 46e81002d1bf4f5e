package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spans keeps a run's spans in memory until the run ends. A nil *spans
// records nothing, so untraced runs pay only a nil check per call.
type spans struct {
	RunID string `json:"run_id"`
	t0    time.Time
	List  []span `json:"spans"`
}

func newSpans(runID string) *spans { return &spans{RunID: runID, t0: time.Now()} }

// begin opens a span and returns its index, to pass to end and as a parent.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.List = append(s.List, span{Name: name, Start: time.Since(s.t0).Nanoseconds(), Parent: parent})
	return len(s.List) - 1
}

func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.List[i].End = time.Since(s.t0).Nanoseconds()
}

// add records a span timed by the caller and returns its index.
func (s *spans) add(name string, start, end time.Time, parent int) int {
	if s == nil {
		return -1
	}
	s.List = append(s.List, span{Name: name, Start: start.Sub(s.t0).Nanoseconds(), End: end.Sub(s.t0).Nanoseconds(), Parent: parent})
	return len(s.List) - 1
}

// call times fn as a span named name under parent.
func (s *spans) call(name string, parent int, fn func() error) error {
	i := s.begin(name, parent)
	err := fn()
	s.end(i)
	return err
}

// seconds returns the durations of every closed span named name, in seconds.
func (s *spans) seconds(name string) []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, sp := range s.List {
		if sp.Name == name && sp.End > 0 {
			out = append(out, float64(sp.End-sp.Start)/1e9)
		}
	}
	return out
}

// write stores the spans as JSON under dir, named after the run id.
func (s *spans) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, s.RunID+".json")
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
