// Package checkpoint makes a step workload's run resumable after a crash.
// A checkpoint is a step marker: the run's configuration digest and the
// number of steps it had finished, in a versioned, fsync'd, self-validating
// envelope. The simulator is deterministic, so a resumed run re-simulates
// from step 0 and reproduces the interrupted run's state exactly; the
// marker only tells it which saves the interrupted run already made. It
// costs a re-simulation of the finished steps, which at this simulator's
// sizes is cheaper than writing and reading the whole driver state.
//
// The design constraint is the repo's core invariant: byte-identical output.
// Every run computes its answer from step 0 under its own configuration, so
// no checkpoint, valid or not, can change the answer. Torn or corrupt files
// are still detected and reported, never resumed: the envelope carries a
// magic, a format version, a length, and a SHA-256 checksum over the
// payload, and a marker of another configuration or an impossible step is
// rejected the same way.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Envelope layout, all integers little-endian:
//
//	[8]  magic "UVMCKPT\n"
//	[4]  format version
//	[8]  payload length
//	[32] SHA-256 of the payload
//	[n]  payload (JSON-encoded Marker)
const (
	magic      = "UVMCKPT\n"
	version    = 1
	headerSize = len(magic) + 4 + 8 + sha256.Size

	// MaxPayload bounds the payload length a decoder will accept; a torn or
	// hostile length field can therefore never drive an allocation larger
	// than this. A marker is under a hundred bytes; whole-state snapshots
	// of earlier builds were under a megabyte.
	MaxPayload = 64 << 20
)

// Encode wraps a payload in the checkpoint envelope.
func Encode(payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("checkpoint: payload %d bytes exceeds cap %d", len(payload), MaxPayload)
	}
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...), nil
}

// Decode validates an envelope and returns its payload. Every failure mode
// of a torn tail, bit flip, version skew, or oversized length field maps to
// an error here; a nil error guarantees the payload is the exact byte string
// that was encoded.
func Decode(blob []byte) ([]byte, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("checkpoint: %d bytes is shorter than the %d-byte header (torn?)", len(blob), headerSize)
	}
	if string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", blob[:len(magic)])
	}
	rest := blob[len(magic):]
	v := binary.LittleEndian.Uint32(rest)
	if v != version {
		return nil, fmt.Errorf("checkpoint: format version %d, this build reads %d", v, version)
	}
	n := binary.LittleEndian.Uint64(rest[4:])
	if n > MaxPayload {
		return nil, fmt.Errorf("checkpoint: payload length %d exceeds cap %d", n, MaxPayload)
	}
	var sum [sha256.Size]byte
	copy(sum[:], rest[12:])
	payload := blob[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("checkpoint: payload is %d bytes, header claims %d (torn?)", len(payload), n)
	}
	if got := sha256.Sum256(payload); got != sum {
		return nil, fmt.Errorf("checkpoint: payload checksum mismatch (corrupt)")
	}
	return payload, nil
}

// WriteFile durably writes an encoded checkpoint blob to path: the blob is
// written to a temporary file in the same directory, fsync'd, closed, and
// renamed over path, and the directory is fsync'd — so a crash at any point
// leaves either the previous checkpoint or the new one, never a torn mix.
// The returned error is load-bearing crash-safety state (errsink enforces
// that callers consume it): a failed write leaves the previous marker, or
// none, for the next resume, and only the caller can count it.
func WriteFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("checkpoint: fsync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir for fsync: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("checkpoint: fsync dir %s: %w", dir, err)
	}
	return d.Close()
}

// ReadFile reads an encoded checkpoint blob from path. The blob is returned
// as-is (still enveloped); Decode/DecodeMarker validate it. A missing file
// returns the underlying fs error (check with os.IsNotExist).
func ReadFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}
