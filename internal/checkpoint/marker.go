package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// Marker is a checkpoint's payload: which run it belongs to and how many of
// that run's steps had finished. The JSON names are those of the whole-state
// snapshots earlier builds wrote, so such a snapshot decodes as a marker and
// its other fields are ignored.
type Marker struct {
	// Digest identifies the configuration of the run that wrote the marker
	// (workload, config sizes, system, platform). A run with another
	// digest rejects it.
	Digest string `json:"digest"`
	// Step is the number of steps the run had finished, which is the
	// first step a resumed run has not yet saved.
	Step int `json:"step"`
}

// Digest hashes a set of configuration values into a short hex string for
// Marker.Digest. Deterministic across processes; any value change yields
// a different digest.
func Digest(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%v", p)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// EncodeMarker marshals a marker and wraps it in the envelope.
func EncodeMarker(m Marker) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return Encode(payload)
}

// DecodeMarker validates an envelope and unmarshals its marker.
func DecodeMarker(blob []byte) (Marker, error) {
	payload, err := Decode(blob)
	if err != nil {
		return Marker{}, err
	}
	var m Marker
	if err := json.Unmarshal(payload, &m); err != nil {
		return Marker{}, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return m, nil
}
