package wire

import (
	"math/rand"
	"testing"
)

// checkSplice overwrites buf[off:off+len(now)] with now and requires the
// spliced sum to equal a whole-buffer Checksum of the result.
func checkSplice(t testing.TB, buf []byte, off int, now []byte) {
	t.Helper()
	sum := Checksum(buf)
	tail := int64(len(buf) - off - len(now))
	got := ChecksumSplice(sum, buf[off:off+len(now)], now, tail)
	copy(buf[off:], now)
	if want := Checksum(buf); got != want {
		t.Fatalf("block %d off %d len %d tail %d: spliced sum %08x, whole-block %08x",
			len(buf), off, len(now), tail, got, want)
	}
}

func TestChecksumSpliceMatchesWholeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	block := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// Edges: empty range, range at the head, range at the tail, the whole
	// block, a one-byte block, and a write of identical bytes.
	for _, n := range []int{1, 7, 4096, 1 << 20} {
		checkSplice(t, block(n), 0, nil)
		checkSplice(t, block(n), n/2, nil)
		checkSplice(t, block(n), n, nil)
		checkSplice(t, block(n), 0, block(n/2+1))
		checkSplice(t, block(n), n/2, block(n-n/2))
		checkSplice(t, block(n), 0, block(n))
		b := block(n)
		checkSplice(t, b, n/3, append([]byte(nil), b[n/3:n/2+1]...))
	}
	// Random block lengths up to 1 MiB, offsets and range lengths; several
	// splices per block, so each one starts from a spliced buffer.
	iters := 120
	if testing.Short() {
		iters = 20
	}
	for i := 0; i < iters; i++ {
		n := 1 + rng.Intn(1<<20)
		b := block(n)
		for j := 0; j < 4; j++ {
			size := rng.Intn(n + 1)
			if j%2 == 0 {
				size = rng.Intn(min(n, 8192) + 1) // small, engine-sized writes
			}
			checkSplice(t, b, rng.Intn(n-size+1), block(size))
		}
	}
}

func TestChecksumSpliceRejectsBadRange(t *testing.T) {
	for _, c := range []struct {
		was, now []byte
		tail     int64
	}{
		{[]byte{1}, []byte{1, 2}, 0},
		{[]byte{1}, []byte{2}, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChecksumSplice(%v, %v, %d) did not panic", c.was, c.now, c.tail)
				}
			}()
			ChecksumSplice(0, c.was, c.now, c.tail)
		}()
	}
}

// FuzzChecksumSplice splices now into block at off (both clamped to fit)
// after pad zero bytes extend the block, so tails reach 1 MiB; the spliced
// sum must always equal the whole-block Checksum.
func FuzzChecksumSplice(f *testing.F) {
	f.Add([]byte{}, uint32(0), []byte{}, uint32(0))
	f.Add([]byte("abcdefgh"), uint32(0), []byte("XY"), uint32(0))
	f.Add([]byte("abcdefgh"), uint32(6), []byte("XY"), uint32(0))
	f.Add([]byte("abcdefgh"), uint32(0), []byte("ABCDEFGH"), uint32(0))
	f.Add([]byte("abcdefgh"), uint32(3), []byte{0xff}, uint32(4093))
	f.Add([]byte{0, 0, 0, 0}, uint32(1), []byte{0, 0}, uint32(1<<20-4))
	f.Fuzz(func(t *testing.T, head []byte, off uint32, now []byte, pad uint32) {
		buf := make([]byte, len(head)+int(pad%(1<<20)))
		copy(buf, head)
		if len(now) > len(buf) {
			now = now[:len(buf)]
		}
		checkSplice(t, buf, int(off%uint32(len(buf)-len(now)+1)), now)
	})
}
