package queuestate

import (
	"reflect"
	"testing"

	"uvmdiscard/internal/gpudev"
)

// readOnly are the gpudev.Device methods that move no chunk between
// queues, so any package may call them.
var readOnly = map[string]bool{
	"Profile":         true,
	"TotalChunks":     true,
	"UsableChunks":    true,
	"UsableBytes":     true,
	"QueueLen":        true,
	"LRUVictim":       true,
	"Next":            true,
	"EachUsed":        true,
	"EachChunk":       true,
	"Chunk":           true,
	"ChunkByID":       true,
	"AppendQueueIDs":  true,
	"CheckInvariants": true,
}

// Every exported method of *gpudev.Device is classified: a mutator the pass
// restricts, or a read-only method. A method added later fails here until
// it is placed in one list, so a new mutator cannot bypass the pass.
func TestEveryDeviceMethodIsClassified(t *testing.T) {
	typ := reflect.TypeOf((*gpudev.Device)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		switch {
		case mutators[name] && readOnly[name]:
			t.Errorf("Device.%s is listed both as a mutator and as read-only", name)
		case !mutators[name] && !readOnly[name]:
			t.Errorf("Device.%s is neither in mutators nor in the read-only list: classify it", name)
		}
	}
	for name := range mutators {
		if _, ok := typ.MethodByName(name); !ok {
			t.Errorf("mutator %s is not a method of *gpudev.Device", name)
		}
	}
}
