// Package tracetest turns fuzz input into short driver traces, so the fuzz
// targets of both trace analyzers draw events the same way.
package tracetest

import (
	"fmt"
	"math"

	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
)

// MaxEvents caps a decoded trace; longer inputs are cut.
const MaxEvents = 64

// eventLen is the input bytes per event: kind, alloc, block, time, size.
const eventLen = 5

// sparse holds IDs that do not pack densely: huge, negative and extreme
// values next to small ones.
var sparse = [...]int{0, 1, 2, -1, math.MaxInt / 2, math.MinInt / 2, math.MaxInt, math.MinInt}

// Decode turns data into at most MaxEvents events. Byte 0 picks how
// allocation IDs (mode%3) and block indexes (mode/3%3) are drawn from
// their byte: 0 takes the byte modulo 4, so the IDs pack densely as the
// driver's do; 1 takes the byte itself; 2 indexes a table of sparse, huge
// and negative IDs. Every following 5-byte group is one event: its kind is
// byte%10, so one kind in ten is unknown; its time is the byte itself, so
// times repeat and run backwards within a block; its size is 5 × byte.
func Decode(data []byte) []trace.Event {
	if len(data) == 0 {
		return nil
	}
	mode := data[0]
	data = data[1:]
	var evs []trace.Event
	for ; len(data) >= eventLen && len(evs) < MaxEvents; data = data[eventLen:] {
		evs = append(evs, trace.Event{
			T:     sim.Time(data[3]),
			Kind:  trace.Kind(data[0] % 10),
			Alloc: id(mode%3, data[1]),
			Block: id(mode/3%3, data[2]),
			Bytes: 5 * uint64(data[4]),
		})
	}
	return evs
}

func id(mode, b byte) int {
	switch mode {
	case 0:
		return int(b % 4)
	case 1:
		return int(b)
	default:
		return sparse[int(b)%len(sparse)]
	}
}

// Encode is Decode's inverse for a trace whose IDs, times and kinds fit in
// a byte and whose sizes are multiples of 5 below 1280. It panics on any
// other trace: seeds are written by hand, so a misfit is a bug in a test.
func Encode(evs []trace.Event) []byte {
	out := []byte{1 + 3*1} // byte IDs for allocations and blocks
	fits := func(v int64) bool { return v >= 0 && v <= math.MaxUint8 }
	for _, ev := range evs {
		if !fits(int64(ev.Kind)) || ev.Kind >= 10 || !fits(int64(ev.Alloc)) || !fits(int64(ev.Block)) ||
			!fits(int64(ev.T)) || ev.Bytes%5 != 0 || ev.Bytes/5 > math.MaxUint8 {
			panic(fmt.Sprintf("tracetest: event %+v does not fit the fuzz encoding", ev))
		}
		out = append(out, byte(ev.Kind), byte(ev.Alloc), byte(ev.Block), byte(ev.T), byte(ev.Bytes/5))
	}
	return out
}
