package erasure

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/threshold"
)

func randomData(n int, seed uint64) []uint64 {
	gen := rng.New(seed)
	data := make([]uint64, n)
	for i := range data {
		data[i] = gen.Uint64()
	}
	return data
}

// erase knocks out `losses` random distinct symbols and returns the
// corrupted copy plus the presence mask.
func erase(data []uint64, losses int, seed uint64) ([]uint64, []bool) {
	gen := rng.New(seed)
	corrupted := append([]uint64(nil), data...)
	present := make([]bool, len(data))
	for i := range present {
		present[i] = true
	}
	perm := gen.Perm(len(data))
	for _, i := range perm[:losses] {
		corrupted[i] = 0
		present[i] = false
	}
	return corrupted, present
}

func TestRoundTripNoLoss(t *testing.T) {
	data := randomData(10000, 1)
	code := NewCode(1500, 3, 7)
	checks := code.Encode(data)
	got := append([]uint64(nil), data...)
	present := make([]bool, len(data))
	for i := range present {
		present[i] = true
	}
	if err := code.Decode(got, present, checks); err != nil {
		t.Fatalf("no-loss decode: %v", err)
	}
}

func TestRecoversBelowThreshold(t *testing.T) {
	// 1000 losses against 1500 check cells: load 0.67 < 0.818.
	data := randomData(20000, 2)
	code := NewCode(1500, 3, 7)
	checks := code.Encode(data)
	corrupted, present := erase(data, 1000, 3)
	if err := code.Decode(corrupted, present, checks); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range data {
		if corrupted[i] != data[i] {
			t.Fatalf("symbol %d wrong after decode", i)
		}
		if !present[i] {
			t.Fatalf("symbol %d not marked recovered", i)
		}
	}
}

func TestFailsAboveThreshold(t *testing.T) {
	// 1400 losses against 1500 cells: load 0.93 > 0.818 — must stall.
	data := randomData(20000, 4)
	code := NewCode(1500, 3, 9)
	checks := code.Encode(data)
	corrupted, present := erase(data, 1400, 5)
	err := code.Decode(corrupted, present, checks)
	if !errors.Is(err, ErrDecodeFailed) {
		t.Fatalf("expected ErrDecodeFailed, got %v", err)
	}
	// Partially recovered symbols must still be correct.
	for i := range data {
		if present[i] && corrupted[i] != data[i] {
			t.Fatalf("symbol %d wrong despite being marked recovered", i)
		}
	}
}

func TestThresholdSharpness(t *testing.T) {
	// Success probability should flip between loads 0.7 and 0.95 around
	// c*(2,3) ~ 0.818.
	cstar, _ := threshold.Threshold(2, 3)
	data := randomData(30000, 6)
	code := NewCode(2000, 3, 11)
	checks := code.Encode(data)

	lowLoss := int(0.85 * cstar * 2000) // ~0.70 load
	corrupted, present := erase(data, lowLoss, 7)
	if err := code.Decode(corrupted, present, checks); err != nil {
		t.Errorf("decode failed at load %.2f below threshold: %v",
			float64(lowLoss)/2000, err)
	}

	highLoss := int(1.15 * cstar * 2000) // ~0.94 load
	corrupted, present = erase(data, highLoss, 8)
	if err := code.Decode(corrupted, present, checks); err == nil {
		t.Errorf("decode succeeded at load %.2f above threshold", float64(highLoss)/2000)
	}
}

func TestMaxTolerableLoss(t *testing.T) {
	cstar, _ := threshold.Threshold(2, 3)
	code := NewCode(2000, 3, 1)
	want := int(cstar * 2000)
	if got := code.MaxTolerableLoss(cstar); got != want {
		t.Errorf("MaxTolerableLoss = %d, want %d", got, want)
	}
}

func TestR4Code(t *testing.T) {
	data := randomData(15000, 9)
	code := NewCode(1024, 4, 13)
	checks := code.Encode(data)
	corrupted, present := erase(data, 700, 10) // load 0.68 < 0.772
	if err := code.Decode(corrupted, present, checks); err != nil {
		t.Fatalf("r=4 decode: %v", err)
	}
	for i := range data {
		if corrupted[i] != data[i] {
			t.Fatalf("symbol %d wrong", i)
		}
	}
}

// TestPositionsDistinct checks that a symbol's j-th cell lies in
// subtable j, and that the cells mod r tail cells stay zero.
func TestPositionsDistinct(t *testing.T) {
	for _, tc := range []struct{ cells, r int }{{64, 4}, {2000, 3}} {
		code := NewCode(tc.cells, tc.r, 3)
		sub := tc.cells / tc.r
		pos := make([]int, tc.r)
		for i := 0; i < 5000; i++ {
			code.positions(i, pos)
			for j, p := range pos {
				if p < j*sub || p >= (j+1)*sub {
					t.Fatalf("cells=%d: index %d position %d = %d outside subtable [%d, %d)", tc.cells, i, j, p, j*sub, (j+1)*sub)
				}
			}
		}
		checks := code.Encode(randomData(5000, 3))
		for p := tc.r * sub; p < tc.cells; p++ {
			if checks[p] != (Cell{}) {
				t.Errorf("cells=%d: tail cell %d = %+v, want zero", tc.cells, p, checks[p])
			}
		}
	}
}

func TestValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"r too small": func() { NewCode(100, 2, 0) },
		"r too big":   func() { NewCode(100, 9, 0) },
		"no cells":    func() { NewCode(0, 3, 0) },
		"cells < r":   func() { NewCode(3, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDecodeShapeMismatch(t *testing.T) {
	c := NewCode(16, 3, 0)
	for name, err := range map[string]error{
		"mask mismatch": c.Decode(make([]uint64, 4), make([]bool, 5), make([]Cell, 16)),
		"check size":    c.Decode(make([]uint64, 4), make([]bool, 4), make([]Cell, 15)),
	} {
		if !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("%s: got %v, want ErrShapeMismatch", name, err)
		}
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	err := c.DecodeCtx(context.Background(), make([]uint64, 4), make([]bool, 5), make([]Cell, 16), pool)
	if !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("DecodeCtx: got %v, want ErrShapeMismatch", err)
	}
}

// TestForgedCheckCell feeds both decoders a check block with one forged
// cell, every symbol missing: the cell passes the count and checksum
// tests but names a symbol out of range, or a valid symbol at a cell
// that is not its own. Neither decoder may panic or recover the symbol.
func TestForgedCheckCell(t *testing.T) {
	const n = 100
	c := NewCode(61, 3, 5) // subSize 20, tail cell 60
	wrong := 0
	if c.position(7, 0) == wrong {
		wrong = 1
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	for name, forge := range map[string]func(checks []Cell){
		"index out of range": func(checks []Cell) {
			checks[0] = Cell{Count: 1, IdxSum: 1<<40 + 1, CheckSum: c.checksum(1 << 40)}
		},
		"wrong position": func(checks []Cell) {
			checks[wrong] = Cell{Count: 1, IdxSum: 8, ValueSum: 0xbad, CheckSum: c.checksum(7)}
		},
		"tail cell": func(checks []Cell) {
			checks[60] = Cell{Count: 1, IdxSum: 8, ValueSum: 0xbad, CheckSum: c.checksum(7)}
		},
	} {
		for _, decode := range []struct {
			name string
			run  func(data []uint64, present []bool, checks []Cell) error
		}{
			{"Decode", c.Decode},
			{"DecodeCtx", func(data []uint64, present []bool, checks []Cell) error {
				return c.DecodeCtx(context.Background(), data, present, checks, pool)
			}},
		} {
			checks := make([]Cell, c.Cells())
			forge(checks)
			data, present := make([]uint64, n), make([]bool, n)
			if err := decode.run(data, present, checks); !errors.Is(err, ErrDecodeFailed) {
				t.Errorf("%s, %s: got %v, want ErrDecodeFailed", name, decode.name, err)
			}
			if present[7] || data[7] != 0 {
				t.Errorf("%s, %s: recovered symbol 7 = %#x from a forged cell", name, decode.name, data[7])
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	// Property: any data block with losses below half the cells (load
	// 0.5, well under threshold) decodes exactly.
	f := func(seed uint64, nRaw, lossRaw uint16) bool {
		n := int(nRaw%2000) + 10
		cells := 256
		losses := int(lossRaw) % (cells / 2)
		if losses > n {
			losses = n
		}
		data := randomData(n, seed)
		code := NewCode(cells, 3, seed^0x1234)
		checks := code.Encode(data)
		corrupted, present := erase(data, losses, seed^0x5678)
		if err := code.Decode(corrupted, present, checks); err != nil {
			return false
		}
		for i := range data {
			if corrupted[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	data := randomData(1<<16, 1)
	code := NewCode(1<<13, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.Encode(data)
	}
}

func BenchmarkDecode(b *testing.B) {
	data := randomData(1<<16, 1)
	code := NewCode(1<<13, 3, 1)
	checks := code.Encode(data)
	corrupted, present := erase(data, 1<<12, 2) // load 0.5
	scratchD := make([]uint64, len(data))
	scratchP := make([]bool, len(present))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratchD, corrupted)
		copy(scratchP, present)
		if err := code.Decode(scratchD, scratchP, checks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeWithPool is BenchmarkEncode through EncodeCtx on a
// pool of GOMAXPROCS workers (set it with -cpu).
func BenchmarkEncodeWithPool(b *testing.B) {
	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	data := randomData(1<<16, 1)
	code := NewCode(1<<13, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.EncodeCtx(context.Background(), data, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeWithPool is BenchmarkDecode through DecodeCtx on a
// pool of GOMAXPROCS workers (set it with -cpu): the parallel
// received-symbol pass and the round-synchronous peel.
func BenchmarkDecodeWithPool(b *testing.B) {
	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	data := randomData(1<<16, 1)
	code := NewCode(1<<13, 3, 1)
	checks := code.Encode(data)
	corrupted, present := erase(data, 1<<12, 2) // load 0.5
	scratchD := make([]uint64, len(data))
	scratchP := make([]bool, len(present))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratchD, corrupted)
		copy(scratchP, present)
		if err := code.DecodeCtx(context.Background(), scratchD, scratchP, checks, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// poolSizes are the worker counts the pooled-vs-serial tests run at.
var poolSizes = []int{1, 2, 3, 8}

// TestEncodeWithPoolMatchesSerial checks the pool-threaded encoder
// (EncodeCtx) is cell-for-cell identical to the serial one (XOR/add
// updates commute) at every pool size, private per-worker shards
// included.
func TestEncodeWithPoolMatchesSerial(t *testing.T) {
	data := randomData(20000, 21)
	code := NewCode(1500, 3, 7)
	serial := code.Encode(data)
	for _, workers := range poolSizes {
		pool := parallel.NewPool(workers)
		pooled, err := code.EncodeCtx(context.Background(), data, pool)
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial {
			if serial[i] != pooled[i] {
				t.Fatalf("workers=%d: cell %d differs: serial %+v pooled %+v", workers, i, serial[i], pooled[i])
			}
		}
	}
}

// TestDecodeWithPoolMatchesSerial checks the pool-threaded decoder
// (DecodeCtx) recovers exactly what the serial one does, on both succeeding and
// stalling loss rates, at every pool size.
func TestDecodeWithPoolMatchesSerial(t *testing.T) {
	data := randomData(20000, 22)
	code := NewCode(1500, 3, 7)
	checks := code.Encode(data)
	for _, workers := range poolSizes {
		pool := parallel.NewPool(workers)
		for _, losses := range []int{0, 1000, 1400} {
			gotS, presentS := erase(data, losses, 23)
			gotP, presentP := erase(data, losses, 23)
			errS := code.Decode(gotS, presentS, checks)
			errP := code.DecodeCtx(context.Background(), gotP, presentP, checks, pool)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("workers=%d losses %d: serial err=%v pooled err=%v", workers, losses, errS, errP)
			}
			for i := range data {
				if gotS[i] != gotP[i] || presentS[i] != presentP[i] {
					t.Fatalf("workers=%d losses %d: symbol %d diverges between serial and pooled decode", workers, losses, i)
				}
			}
		}
		pool.Close()
	}
}

// TestConcurrentErasureJobsSharedPool runs several encode+decode jobs
// concurrently on one shared pool (the multi-tenant serving pattern).
func TestConcurrentErasureJobsSharedPool(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	group := pool.NewGroup(0)
	for j := 0; j < 6; j++ {
		group.Go(func(p *parallel.Pool) error {
			data := randomData(8000+500*j, uint64(30+j))
			code := NewCode(1200, 3, uint64(7+j))
			checks, err := code.EncodeCtx(context.Background(), data, p)
			if err != nil {
				return err
			}
			corrupted, present := erase(data, 700, uint64(90+j))
			if err := code.DecodeCtx(context.Background(), corrupted, present, checks, p); err != nil {
				return err
			}
			for i := range data {
				if corrupted[i] != data[i] {
					return errors.New("recovered symbol mismatch")
				}
			}
			return nil
		})
	}
	if err := group.Wait(); err != nil {
		t.Fatal(err)
	}
}
