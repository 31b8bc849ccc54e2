package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortedKeys(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	sort.Float64s(keys)
	return keys
}

func TestBulkRank(t *testing.T) {
	keys := sortedKeys(5000, 1)
	tr := Bulk(keys, 16)
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", tr.Len())
	}
	// Duplicate float keys are vanishingly unlikely here, so every key's
	// rank is its position.
	for i, k := range keys {
		if got := tr.Rank(k); got != i {
			t.Fatalf("Rank(%v) = %d, want %d", k, got, i)
		}
	}
	if got := tr.Rank(-1); got != 0 {
		t.Errorf("Rank below every key = %d, want 0", got)
	}
	if got := tr.Rank(2); got != len(keys) {
		t.Errorf("Rank above every key = %d, want %d", got, len(keys))
	}
}

func TestBulkEmpty(t *testing.T) {
	tr := Bulk(nil, 8)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty bulk: len=%d height=%d", tr.Len(), tr.Height())
	}
	if r := tr.Rank(0.5); r != 0 {
		t.Errorf("Rank on empty tree = %d", r)
	}
}

func TestBulkPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"unsorted": func() { Bulk([]float64{2, 1}, 8) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

// Rank is the operation HRR depends on: it must equal the number of keys
// strictly below the probe for bulk-loaded trees of any shape.
func TestRankMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64()
		}
		sort.Float64s(keys)
		tr := Bulk(keys, 4+rng.Intn(60))
		for probe := 0; probe < 20; probe++ {
			q := rng.Float64()*1.2 - 0.1
			want := sort.SearchFloat64s(keys, q)
			if got := tr.Rank(q); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRankExistingKeyExcludesSelf(t *testing.T) {
	keys := []float64{0.1, 0.2, 0.3, 0.4}
	tr := Bulk(keys, 4)
	for i, k := range keys {
		if got := tr.Rank(k); got != i {
			t.Errorf("Rank(%v) = %d, want %d", k, got, i)
		}
	}
}

func TestInsertThenRank(t *testing.T) {
	tr := Bulk(nil, 8)
	rng := rand.New(rand.NewSource(2))
	keys := make([]float64, 3000)
	for i := range keys {
		keys[i] = rng.Float64()
		tr.Insert(keys[i])
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	sort.Float64s(keys)
	for i, k := range keys {
		if got := tr.Rank(k); got != i {
			t.Fatalf("Rank(%v) = %d after inserts, want %d", k, got, i)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("3000 keys at fanout 8 should be height >= 3, got %d", tr.Height())
	}
}

// Mixed bulk + insert must keep Rank exact.
func TestInsertRankProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var all []float64
		tr := Bulk(nil, 4+rng.Intn(28))
		n := 200 + rng.Intn(800)
		for i := 0; i < n; i++ {
			k := rng.Float64()
			all = append(all, k)
			tr.Insert(k)
		}
		sort.Float64s(all)
		for probe := 0; probe < 10; probe++ {
			q := rng.Float64()
			if tr.Rank(q) != sort.SearchFloat64s(all, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The entries with keys in [lo, hi) are Rank(hi) - Rank(lo): the count a
// range over the rank space needs.
func TestScanRange(t *testing.T) {
	keys := sortedKeys(2000, 3)
	tr := Bulk(keys, 32)
	for _, r := range [][2]float64{{0.25, 0.75}, {0, 1}, {0.5, 0.5}, {-1, 0}} {
		lo, hi := r[0], r[1]
		want := 0
		for _, k := range keys {
			if k >= lo && k < hi {
				want++
			}
		}
		if got := tr.Rank(hi) - tr.Rank(lo); got != want {
			t.Errorf("[%v, %v) holds %d keys by rank, want %d", lo, hi, got, want)
		}
	}
}

// A range above every key is empty by rank: both ends rank past the last
// entry.
func TestScanEmptyRange(t *testing.T) {
	keys := sortedKeys(100, 5)
	tr := Bulk(keys, 8)
	if lo, hi := tr.Rank(2), tr.Rank(3); lo != len(keys) || hi != len(keys) {
		t.Errorf("Rank(2), Rank(3) = %d, %d, want %d for both", lo, hi, len(keys))
	}
}

func TestBulkClampsFanout(t *testing.T) {
	tr := Bulk(nil, 1)
	for i := 0; i < 100; i++ {
		tr.Insert(float64(i))
	}
	if tr.Len() != 100 || tr.Rank(100) != 100 || tr.Rank(50) != 50 {
		t.Error("tiny fanout tree lost entries")
	}
	if tr.fanout != 4 {
		t.Errorf("fanout 1 became %d, want 4", tr.fanout)
	}
	if Bulk(nil, 0).fanout != DefaultFanout {
		t.Error("zero fanout must select default")
	}
}

func TestSizeBytesAndHeightGrow(t *testing.T) {
	small := Bulk([]float64{0.5}, 16)
	keys := sortedKeys(10000, 6)
	big := Bulk(keys, 16)
	if big.SizeBytes() <= small.SizeBytes() {
		t.Error("bigger tree must take more space")
	}
	if big.Height() <= small.Height() {
		t.Error("bigger tree must be taller")
	}
}

func TestDuplicateKeys(t *testing.T) {
	keys := []float64{1, 1, 1, 2, 2, 3}
	tr := Bulk(keys, 4)
	if got := tr.Rank(1); got != 0 {
		t.Errorf("Rank(1) = %d, want 0", got)
	}
	if got := tr.Rank(2); got != 3 {
		t.Errorf("Rank(2) = %d, want 3", got)
	}
	if got := tr.Rank(4); got != 6 {
		t.Errorf("Rank(4) = %d, want 6", got)
	}
	if run := tr.Rank(math.Nextafter(1, 2)) - tr.Rank(1); run != 3 {
		t.Errorf("duplicate run of 1 has %d entries by rank, want 3", run)
	}
}

func BenchmarkRank(b *testing.B) {
	keys := sortedKeys(100000, 7)
	tr := Bulk(keys, 100)
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Rank(rng.Float64())
	}
}
