// Package dataset generates and serialises the point data sets of §6.1.
//
// The synthetic families (Uniform, Normal, Skewed) follow the paper's recipe
// literally. The real data sets (TIGER, OSM) are not available offline;
// TigerLike and OSMLike are documented synthetic stand-ins that preserve the
// characteristics the evaluation stresses — see README.md, "Datasets".
//
// All generators are deterministic in their seed and emit points in the unit
// square with distinct coordinates in each dimension (the paper assumes "no
// two points have the same coordinates in both dimensions"; with float64
// draws, exact collisions are removed by rejection).
package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"rsmi/internal/geom"
)

// Kind identifies a data distribution.
type Kind int

const (
	// Uniform points in the unit square.
	Uniform Kind = iota
	// Normal points around the square's centre (clipped to the square).
	Normal
	// Skewed points: uniform, then y ← y^SkewAlpha (paper: α = 4,
	// "following HRR [37, 38]").
	Skewed
	// TigerLike is the synthetic stand-in for the TIGER data set:
	// geographic features clustered along a road-like lattice.
	TigerLike
	// OSMLike is the synthetic stand-in for the OSM data set: heavy-tailed
	// urban clusters over a sparse background.
	OSMLike
)

// SkewAlpha is the paper's skew exponent (α = 4).
const SkewAlpha = 4

// kinds lists all Kind values in display order.
var kinds = []Kind{Uniform, Normal, Skewed, TigerLike, OSMLike}

// All returns every distribution kind in the order the paper's figures use
// (Uni., Nor., Ske., Tig., OSM).
func All() []Kind { return append([]Kind(nil), kinds...) }

// String implements fmt.Stringer with the paper's figure labels.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "Uniform"
	case Normal:
		return "Normal"
	case Skewed:
		return "Skewed"
	case TigerLike:
		return "Tiger"
	case OSMLike:
		return "OSM"
	default:
		return fmt.Sprintf("dataset.Kind(%d)", int(k))
	}
}

// Parse returns the Kind named by s (case-sensitive match on String()
// values, plus lower-case aliases).
func Parse(s string) (Kind, error) {
	switch s {
	case "Uniform", "uniform", "uni":
		return Uniform, nil
	case "Normal", "normal", "nor":
		return Normal, nil
	case "Skewed", "skewed", "ske":
		return Skewed, nil
	case "Tiger", "tiger", "tig":
		return TigerLike, nil
	case "OSM", "osm":
		return OSMLike, nil
	}
	return 0, fmt.Errorf("dataset: unknown distribution %q", s)
}

// Generate produces n points of the given distribution.
func Generate(kind Kind, n int, seed int64) []geom.Point {
	switch kind {
	case Uniform:
		return uniform(n, seed)
	case Normal:
		return normal(n, seed)
	case Skewed:
		return skewed(n, seed, SkewAlpha)
	case TigerLike:
		return tigerLike(n, seed)
	case OSMLike:
		return osmLike(n, seed)
	default:
		panic(fmt.Sprintf("dataset: unknown kind %d", int(kind)))
	}
}

// dedup collects a generator's draws, refusing exact duplicates so the
// rank-space assumption holds. A duplicate is what Go's == on geom.Point
// says, as for a map key: −0 equals +0, and a point with a NaN coordinate
// equals nothing. The set is an open-addressing table of indices into the
// accepted points, at most half full for the n it was sized for: 4 bytes a
// slot where a map would keep a second copy of every point, so probes stay
// in cache longer.
type dedup struct {
	pts   []geom.Point // the accepted points, in draw order
	slots []uint32     // 1 + an index into pts; 0 marks an empty slot
	shift uint         // 64 − log2(len(slots)): a hash's top bits name its slot
}

// newDedup returns a set for up to n points.
func newDedup(n int) *dedup {
	lg := uint(1)
	for 1<<lg < 2*n {
		lg++
	}
	return &dedup{pts: make([]geom.Point, 0, n), slots: make([]uint32, 1<<lg), shift: 64 - lg}
}

// add reports whether p was fresh and, if so, appends it to d.pts.
func (d *dedup) add(p geom.Point) bool {
	mask := uint64(len(d.slots) - 1)
	for i := hashPoint(p) >> d.shift; ; i = (i + 1) & mask {
		s := d.slots[i]
		if s == 0 {
			d.slots[i] = uint32(len(d.pts)) + 1
			d.pts = append(d.pts, p)
			return true
		}
		if d.pts[s-1] == p {
			return false
		}
	}
}

// hashPoint mixes p's bits (Fibonacci hashing: the top bits of the product
// depend on every bit of its input). −0 hashes as +0, since the two are equal.
func hashPoint(p geom.Point) uint64 {
	x, y := p.X, p.Y
	if x == 0 {
		x = 0
	}
	if y == 0 {
		y = 0
	}
	h := math.Float64bits(x) ^ bits.RotateLeft64(math.Float64bits(y), 32)
	return h * 0x9E3779B97F4A7C15
}

func uniform(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	d := newDedup(n)
	for len(d.pts) < n {
		d.add(geom.Pt(rng.Float64(), rng.Float64()))
	}
	return d.pts
}

func normal(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	d := newDedup(n)
	const sigma = 1.0 / 6
	for len(d.pts) < n {
		x := 0.5 + rng.NormFloat64()*sigma
		y := 0.5 + rng.NormFloat64()*sigma
		if x < 0 || x > 1 || y < 0 || y > 1 {
			continue
		}
		d.add(geom.Pt(x, y))
	}
	return d.pts
}

func skewed(n int, seed int64, alpha int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	d := newDedup(n)
	for len(d.pts) < n {
		x := rng.Float64()
		y := math.Pow(rng.Float64(), float64(alpha))
		d.add(geom.Pt(x, y))
	}
	return d.pts
}

// tigerLike mimics geographic feature data: most features (road segments,
// buildings, hydrography) line up along a coarse irregular lattice of
// corridors with Gaussian cross-corridor jitter, plus a rural background.
func tigerLike(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	// Irregular corridor positions.
	const corridors = 12
	hs := make([]float64, corridors) // horizontal corridor y-positions
	vs := make([]float64, corridors) // vertical corridor x-positions
	for i := range hs {
		hs[i] = rng.Float64()
		vs[i] = rng.Float64()
	}
	const jitter = 0.004
	d := newDedup(n)
	for len(d.pts) < n {
		var p geom.Point
		switch r := rng.Float64(); {
		case r < 0.45: // along a horizontal corridor
			p = geom.Pt(rng.Float64(), clamp01(hs[rng.Intn(corridors)]+rng.NormFloat64()*jitter))
		case r < 0.90: // along a vertical corridor
			p = geom.Pt(clamp01(vs[rng.Intn(corridors)]+rng.NormFloat64()*jitter), rng.Float64())
		default: // rural background
			p = geom.Pt(rng.Float64(), rng.Float64())
		}
		d.add(p)
	}
	return d.pts
}

// osmLike mimics OpenStreetMap point density: a few extremely dense urban
// clusters whose weights follow a power law, over a sparse background. This
// is the most skewed of the five distributions, as OSM is in the paper
// (largest error bounds, most block accesses for the grid baseline).
func osmLike(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 24
	type cluster struct {
		c      geom.Point
		sigma  float64
		weight float64
	}
	cs := make([]cluster, clusters)
	total := 0.0
	for i := range cs {
		w := math.Pow(float64(i+1), -1.1) // Zipf-ish city sizes
		cs[i] = cluster{
			c:      geom.Pt(rng.Float64(), rng.Float64()),
			sigma:  0.002 + 0.02*rng.Float64(),
			weight: w,
		}
		total += w
	}
	d := newDedup(n)
	for len(d.pts) < n {
		var p geom.Point
		if rng.Float64() < 0.85 {
			// Pick a cluster by weight.
			t := rng.Float64() * total
			var k int
			for k = 0; k < clusters-1; k++ {
				if t -= cs[k].weight; t <= 0 {
					break
				}
			}
			c := cs[k]
			p = geom.Pt(
				clamp01(c.c.X+rng.NormFloat64()*c.sigma),
				clamp01(c.c.Y+rng.NormFloat64()*c.sigma),
			)
		} else {
			p = geom.Pt(rng.Float64(), rng.Float64())
		}
		d.add(p)
	}
	return d.pts
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
