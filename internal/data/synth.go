// Package data provides the image-classification workloads for the TBNet
// reproduction. The paper evaluates on CIFAR-10 and CIFAR-100; those datasets
// (and a GPU training stack) are not available in this offline environment,
// so the package generates *SynthCIFAR* equivalents: procedural k-class
// distributions of 3-channel images built from smooth per-class prototypes
// with per-sample deformation and noise. The substitution preserves the
// behaviours the evaluation depends on — accuracy degrades when channels are
// pruned or knowledge is removed, recovers under fine-tuning, and scales with
// training-data availability.
package data

import (
	"math"

	"tbnet/internal/tensor"
)

// Dataset is an in-memory labeled image set in NCHW layout.
type Dataset struct {
	X       *tensor.Tensor // [N, C, H, W]
	Y       []int
	Classes int
	Name    string
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// SynthConfig controls the procedural generator.
type SynthConfig struct {
	Name       string
	Classes    int
	H, W       int
	Train      int // training examples
	Test       int // test examples
	Seed       uint64
	NoiseStd   float64 // per-pixel Gaussian noise
	MaxShift   int     // per-sample cyclic translation amplitude
	Components int     // Fourier components per class prototype
	// Separation scales the class-specific part of each prototype relative
	// to a shared base pattern. 0 (or unset) means fully separated classes
	// (no shared base); small values (e.g. 0.3) make classes mostly overlap,
	// so accuracy depends on model capacity and training data — keeping the
	// evaluation off the 100%-accuracy ceiling.
	Separation float64
}

// SynthCIFAR10 returns a 10-class configuration sized for this repository's
// CI-scale experiments (images are 16×16 rather than 32×32 so the full
// pipeline — train, transfer, prune, attack — runs in seconds).
func SynthCIFAR10(train, test int, seed uint64) SynthConfig {
	return SynthConfig{Name: "SynthC10", Classes: 10, H: 16, W: 16,
		Train: train, Test: test, Seed: seed,
		NoiseStd: 0.35, MaxShift: 2, Components: 4}
}

// SynthCIFAR100 returns the 100-class analogue (finer-grained classes with
// the same image geometry, mirroring CIFAR-100's harder task).
func SynthCIFAR100(train, test int, seed uint64) SynthConfig {
	return SynthConfig{Name: "SynthC100", Classes: 100, H: 16, W: 16,
		Train: train, Test: test, Seed: seed,
		NoiseStd: 0.30, MaxShift: 1, Components: 5}
}

// synths is the one task-name → configuration table.
var synths = map[string]func(train, test int, seed uint64) SynthConfig{
	"c10":  SynthCIFAR10,
	"c100": SynthCIFAR100,
}

// SynthByName resolves a task name ("c10" or "c100") to its configuration
// constructor; ok is false for any other name.
func SynthByName(name string) (mk func(train, test int, seed uint64) SynthConfig, ok bool) {
	mk, ok = synths[name]
	return mk, ok
}

// prototype holds one class's smooth base pattern, one plane per channel.
type prototype struct {
	planes [][]float32 // [channel][h*w]
}

// Generate builds the train and test splits deterministically from the seed.
func Generate(cfg SynthConfig) (train, test *Dataset) {
	rng := tensor.NewRNG(cfg.Seed)
	protos := make([]prototype, cfg.Classes)
	for c := range protos {
		protos[c] = makePrototype(rng, cfg)
	}
	if cfg.Separation > 0 && cfg.Separation < 1 {
		// Blend every class towards a shared base pattern: the class signal
		// shrinks to cfg.Separation of its free-standing strength.
		base := makePrototype(rng, cfg)
		sep := float32(cfg.Separation)
		for c := range protos {
			for ch := range protos[c].planes {
				for i := range protos[c].planes[ch] {
					protos[c].planes[ch][i] = base.planes[ch][i] + sep*protos[c].planes[ch][i]
				}
			}
		}
	}
	train = sample(rng, cfg, protos, cfg.Train)
	test = sample(rng, cfg, protos, cfg.Test)
	return train, test
}

func makePrototype(rng *tensor.RNG, cfg SynthConfig) prototype {
	const channels = 3
	p := prototype{planes: make([][]float32, channels)}
	for ch := 0; ch < channels; ch++ {
		plane := make([]float32, cfg.H*cfg.W)
		for f := 0; f < cfg.Components; f++ {
			fx := float64(1 + rng.Intn(3))
			fy := float64(1 + rng.Intn(3))
			amp := 0.5 + rng.Float64()
			phx := 2 * math.Pi * rng.Float64()
			phy := 2 * math.Pi * rng.Float64()
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					v := amp * math.Sin(2*math.Pi*fx*float64(x)/float64(cfg.W)+phx) *
						math.Cos(2*math.Pi*fy*float64(y)/float64(cfg.H)+phy)
					plane[y*cfg.W+x] += float32(v)
				}
			}
		}
		p.planes[ch] = plane
	}
	return p
}

func sample(rng *tensor.RNG, cfg SynthConfig, protos []prototype, n int) *Dataset {
	const channels = 3
	x := tensor.New(n, channels, cfg.H, cfg.W)
	y := make([]int, n)
	xd := x.Data()
	planeSize := cfg.H * cfg.W
	for i := 0; i < n; i++ {
		c := i % cfg.Classes // balanced classes
		y[i] = c
		dy := rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		dx := rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		gain := float32(0.8 + 0.4*rng.Float64())
		for ch := 0; ch < channels; ch++ {
			src := protos[c].planes[ch]
			dst := xd[(i*channels+ch)*planeSize : (i*channels+ch+1)*planeSize]
			for yy := 0; yy < cfg.H; yy++ {
				sy := ((yy+dy)%cfg.H + cfg.H) % cfg.H
				for xx := 0; xx < cfg.W; xx++ {
					sx := ((xx+dx)%cfg.W + cfg.W) % cfg.W
					dst[yy*cfg.W+xx] = gain*src[sy*cfg.W+sx] + float32(cfg.NoiseStd*rng.Norm())
				}
			}
		}
	}
	return &Dataset{X: x, Y: y, Classes: cfg.Classes, Name: cfg.Name}
}

// Batch is one minibatch view (X aliases the parent dataset's storage only
// when indices are contiguous; in general it is a gathered copy).
type Batch struct {
	X *tensor.Tensor
	Y []int
}

// Batches splits the dataset into minibatches following the given order
// (pass rng.Perm(d.Len()) to shuffle, or nil for natural order).
func (d *Dataset) Batches(batchSize int, order []int) []Batch {
	if order == nil {
		order = make([]int, d.Len())
		for i := range order {
			order[i] = i
		}
	}
	sample := d.X.Size() / d.Len()
	shape := d.X.Shape()
	var out []Batch
	for start := 0; start < len(order); start += batchSize {
		end := start + batchSize
		if end > len(order) {
			end = len(order)
		}
		idx := order[start:end]
		bx := tensor.New(append([]int{len(idx)}, shape[1:]...)...)
		by := make([]int, len(idx))
		for j, src := range idx {
			copy(bx.Data()[j*sample:(j+1)*sample], d.X.Data()[src*sample:(src+1)*sample])
			by[j] = d.Y[src]
		}
		out = append(out, Batch{X: bx, Y: by})
	}
	return out
}

// Subset returns a class-balanced random fraction of the dataset, modeling
// the attacker's partial training-data availability in the paper's Fig. 2.
func (d *Dataset) Subset(fraction float64, seed uint64) *Dataset {
	if fraction >= 1 {
		return d
	}
	rng := tensor.NewRNG(seed)
	perClass := make(map[int][]int)
	for i, c := range d.Y {
		perClass[c] = append(perClass[c], i)
	}
	var chosen []int
	for c := 0; c < d.Classes; c++ {
		idx := perClass[c]
		k := int(float64(len(idx))*fraction + 0.5)
		if k < 1 && len(idx) > 0 {
			k = 1
		}
		p := rng.Perm(len(idx))
		for j := 0; j < k; j++ {
			chosen = append(chosen, idx[p[j]])
		}
	}
	sample := d.X.Size() / d.Len()
	shape := d.X.Shape()
	x := tensor.New(append([]int{len(chosen)}, shape[1:]...)...)
	y := make([]int, len(chosen))
	for j, src := range chosen {
		copy(x.Data()[j*sample:(j+1)*sample], d.X.Data()[src*sample:(src+1)*sample])
		y[j] = d.Y[src]
	}
	return &Dataset{X: x, Y: y, Classes: d.Classes, Name: d.Name}
}
