package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"uvmdiscard/internal/sim"
)

// jsonEvent is the serialized form of one event: kinds travel as strings
// so dumps stay readable and stable across refactors.
type jsonEvent struct {
	T     int64  `json:"t"`
	Kind  string `json:"kind"`
	Alloc int    `json:"alloc"`
	Block int    `json:"block"`
	Bytes uint64 `json:"bytes"`
}

var kindValues = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = Kind(k)
	}
	return m
}()

// WriteJSON streams the recorder's events as JSON Lines (one event per
// line), a format external tools can consume incrementally.
func WriteJSON(w io.Writer, r *Recorder) error {
	if r.Len() == 0 {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, c := range r.chunks() {
		for _, ev := range c {
			if !ev.Kind.named() {
				return fmt.Errorf("trace: unknown kind %d", int(ev.Kind))
			}
			if err := enc.Encode(jsonEvent{
				T: int64(ev.T), Kind: kindNames[ev.Kind], Alloc: ev.Alloc, Block: ev.Block, Bytes: ev.Bytes,
			}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadJSON parses a JSON Lines dump produced by WriteJSON back into a
// recorder, so saved traces can be re-analyzed offline.
func ReadJSON(r io.Reader) (*Recorder, error) {
	rec := NewRecorder()
	dec := json.NewDecoder(r)
	for dec.More() {
		var je jsonEvent
		if err := dec.Decode(&je); err != nil {
			return nil, fmt.Errorf("trace: bad event: %w", err)
		}
		kind, ok := kindValues[je.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: unknown kind %q", je.Kind)
		}
		rec.Record(Event{
			T: sim.Time(je.T), Kind: kind, Alloc: je.Alloc, Block: je.Block, Bytes: je.Bytes,
		})
	}
	return rec, nil
}
