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
// line), a format external tools can consume incrementally. A trace holding
// a kind the format cannot name is refused before anything is written.
func WriteJSON(w io.Writer, r *Recorder) error {
	if r.Len() == 0 {
		return nil
	}
	for c, i := r.head, 0; i < r.n; c = c.next {
		for k := 0; k < chunkLen && i < r.n; k, i = k+1, i+1 {
			if kind, _ := r.kindSize(c, k, i); !kind.named() {
				return fmt.Errorf("trace: unknown kind %d", int(kind))
			}
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for c, i := r.head, 0; i < r.n; c = c.next {
		for k := 0; k < chunkLen && i < r.n; k, i = k+1, i+1 {
			ev := r.event(c, k, i)
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
