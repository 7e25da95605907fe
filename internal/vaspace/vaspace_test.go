package vaspace

import (
	"testing"
	"testing/quick"

	"uvmdiscard/internal/units"
)

func TestAllocBasics(t *testing.T) {
	s := NewSpace()
	a, err := s.Alloc("A", 5*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "A" || a.Size() != 5*units.MiB {
		t.Error("metadata wrong")
	}
	if a.NumBlocks() != 3 { // 5 MiB -> three 2 MiB blocks
		t.Errorf("blocks = %d", a.NumBlocks())
	}
	if !units.IsAligned(units.Size(a.Base()), units.BlockSize) {
		t.Error("base not 2 MiB aligned")
	}
	// Final block covers only the 1 MiB remainder.
	if a.Block(2).Bytes() != units.MiB {
		t.Errorf("tail block bytes = %d", a.Block(2).Bytes())
	}
	if a.Block(0).Bytes() != units.BlockSize {
		t.Errorf("full block bytes = %d", a.Block(0).Bytes())
	}
	if b := a.Block(1); b.Index != 1 || s.AllocOf(b) != a {
		t.Errorf("block 1 has index %d and alloc id %d, want 1 and %d", b.Index, b.Alloc, a.ID())
	}
}

func TestAllocZeroSizeRejected(t *testing.T) {
	s := NewSpace()
	if _, err := s.Alloc("z", 0); err == nil {
		t.Error("zero-size allocation accepted")
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	s := NewSpace()
	f := func(sizes []uint32) bool {
		type rng struct{ lo, hi uint64 }
		var rngs []rng
		for _, sz := range sizes {
			size := units.Size(sz%(64*uint32(units.MiB))) + 1
			a, err := s.Alloc("x", size)
			if err != nil {
				return false
			}
			r := rng{a.Base(), a.Base() + uint64(units.AlignUp(size, units.BlockSize))}
			for _, prev := range rngs {
				if r.lo < prev.hi && prev.lo < r.hi {
					return false
				}
			}
			rngs = append(rngs, r)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLookup(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", 3*units.MiB)
	b, _ := s.Alloc("B", units.BlockSize)
	if got := s.Lookup(a.Base()); got != a {
		t.Error("lookup of A base failed")
	}
	if got := s.Lookup(a.Base() + uint64(3*units.MiB) - 1); got != a {
		t.Error("lookup of A last byte failed")
	}
	// The aligned gap after A's 3 MiB (within its 4 MiB VA reservation)
	// belongs to no allocation.
	if got := s.Lookup(a.Base() + uint64(3*units.MiB)); got != nil {
		t.Errorf("lookup in A's alignment slack returned %v", got.Name())
	}
	if got := s.Lookup(b.Base()); got != b {
		t.Error("lookup of B failed")
	}
	if s.Lookup(0) != nil {
		t.Error("address 0 should be invalid")
	}
	if s.Lookup(1<<60) != nil {
		t.Error("wild address should be invalid")
	}
}

func TestFree(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", units.BlockSize)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if !a.Freed() {
		t.Error("not marked freed")
	}
	if s.Free(a) == nil {
		t.Error("double free accepted")
	}
	if s.Lookup(a.Base()) != nil {
		t.Error("freed allocation still found")
	}
	if s.ByID(a.ID()) != nil {
		t.Error("freed allocation still indexed")
	}
	if len(s.Live()) != 0 {
		t.Error("freed allocation still live")
	}
}

// spanBlocks lists the blocks of BlockSpan(off, length, whole) in order.
func spanBlocks(a *Alloc, off, length units.Size, whole bool) ([]*Block, error) {
	first, last, err := a.BlockSpan(off, length, whole)
	if err != nil || last < first {
		return nil, err
	}
	var out []*Block
	for i := first; i <= last; i++ {
		out = append(out, a.Block(i))
	}
	return out, nil
}

func TestBlockRangeWhole(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", 8*units.MiB) // 4 blocks

	// Exact full range covers all blocks.
	bs, err := spanBlocks(a, 0, 8*units.MiB, true)
	if err != nil || len(bs) != 4 {
		t.Fatalf("full range: %d blocks, err %v", len(bs), err)
	}

	// A partial range only yields fully covered blocks (§5.4: discard
	// ignores partial 2 MiB regions).
	bs, _ = spanBlocks(a, units.MiB, 4*units.MiB, true) // covers [1MiB,5MiB)
	if len(bs) != 1 || bs[0].Index != 1 {
		t.Errorf("partial range: got %d blocks (first %v)", len(bs), idxOf(bs))
	}

	// A sub-block range yields nothing.
	bs, _ = spanBlocks(a, units.MiB, units.MiB, true)
	if len(bs) != 0 {
		t.Errorf("sub-block range yielded %d blocks", len(bs))
	}
}

func TestBlockRangeWholeTail(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", 5*units.MiB) // 3 blocks, tail is 1 MiB
	// Range to the end of the allocation includes the partial tail block.
	bs, err := spanBlocks(a, 2*units.MiB, 3*units.MiB, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || bs[0].Index != 1 || bs[1].Index != 2 {
		t.Errorf("tail range blocks = %v", idxOf(bs))
	}
}

func TestBlockRangePartialMode(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", 8*units.MiB)
	bs, err := spanBlocks(a, units.MiB, 4*units.MiB, false)
	if err != nil {
		t.Fatal(err)
	}
	// [1MiB, 5MiB) touches blocks 0,1,2.
	if len(bs) != 3 || bs[0].Index != 0 || bs[2].Index != 2 {
		t.Errorf("partial-mode blocks = %v", idxOf(bs))
	}
}

func TestBlockRangeErrors(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", 2*units.MiB)
	if _, _, err := a.BlockSpan(0, 3*units.MiB, false); err == nil {
		t.Error("out-of-bounds range accepted")
	}
	first, last, err := a.BlockSpan(0, 0, false)
	if err != nil || last >= first {
		t.Errorf("empty range should be an empty span without error, got [%d,%d], %v", first, last, err)
	}
}

func TestBlockRangePropertyCoverage(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", 32*units.MiB)
	f := func(off32, len32 uint32) bool {
		off := units.Size(off32) % (32 * units.MiB)
		length := units.Size(len32) % (32*units.MiB - off)
		if length == 0 {
			return true
		}
		partial, err := spanBlocks(a, off, length, false)
		if err != nil {
			return false
		}
		whole, err := spanBlocks(a, off, length, true)
		if err != nil {
			return false
		}
		// whole-mode blocks are a subset of partial-mode blocks, and every
		// whole-mode block is fully inside the range.
		if len(whole) > len(partial) {
			return false
		}
		for _, b := range whole {
			lo := units.Size(b.Index) * units.BlockSize
			if lo < off || lo+b.Bytes() > off+length {
				return false
			}
		}
		// partial-mode covers every byte.
		covered := units.Size(0)
		for _, b := range partial {
			covered += b.Bytes()
		}
		return covered >= length
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBackingData(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", 3*units.MiB)
	if a.HasData() {
		t.Error("backing should be lazy")
	}
	d := a.Data()
	if len(d) != int(3*units.MiB) {
		t.Errorf("backing len = %d", len(d))
	}
	d[0] = 42
	d[2*int(units.MiB)] = 7
	a.ZeroBlockData(0)
	if a.Data()[0] != 0 {
		t.Error("block 0 not zeroed")
	}
	if a.Data()[2*int(units.MiB)] != 7 {
		t.Error("block 1 data clobbered by zeroing block 0")
	}
	// Zeroing the tail block must respect the allocation end.
	a.ZeroBlockData(1)
	if a.Data()[2*int(units.MiB)] != 0 {
		t.Error("tail block not zeroed")
	}
}

func TestZeroBlockDataWithoutBacking(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc("A", units.BlockSize)
	a.ZeroBlockData(0) // must not allocate or panic
	if a.HasData() {
		t.Error("ZeroBlockData materialized backing")
	}
}

func TestResidencyString(t *testing.T) {
	if Untouched.String() != "untouched" || CPUResident.String() != "cpu" ||
		GPUResident.String() != "gpu" {
		t.Error("residency names")
	}
	if Residency(9).String() == "" {
		t.Error("unknown residency should stringify")
	}
}

func idxOf(bs []*Block) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = int(b.Index)
	}
	return out
}
