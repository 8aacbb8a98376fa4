package data

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateShapes(t *testing.T) {
	train, test := Generate(SynthCIFAR10(100, 40, 1))
	if train.Len() != 100 || test.Len() != 40 {
		t.Fatalf("sizes = %d/%d, want 100/40", train.Len(), test.Len())
	}
	s := train.X.Shape()
	if s[0] != 100 || s[1] != 3 || s[2] != 16 || s[3] != 16 {
		t.Fatalf("train shape = %v", s)
	}
	for _, y := range train.Y {
		if y < 0 || y >= 10 {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(SynthCIFAR10(50, 10, 7))
	b, _ := Generate(SynthCIFAR10(50, 10, 7))
	for i := range a.X.Data() {
		if a.X.Data()[i] != b.X.Data()[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	c, _ := Generate(SynthCIFAR10(50, 10, 8))
	same := true
	for i := range a.X.Data() {
		if a.X.Data()[i] != c.X.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should generate different data")
	}
}

func TestClassesAreBalanced(t *testing.T) {
	train, _ := Generate(SynthCIFAR10(100, 10, 2))
	counts := make(map[int]int)
	for _, y := range train.Y {
		counts[y]++
	}
	for c := 0; c < 10; c++ {
		if counts[c] != 10 {
			t.Fatalf("class %d has %d examples, want 10", c, counts[c])
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// A nearest-class-prototype classifier on raw pixels should beat chance
	// by a wide margin — otherwise no model could learn the task.
	train, test := Generate(SynthCIFAR10(200, 100, 3))
	sample := train.X.Size() / train.Len()
	centroids := make([][]float64, 10)
	counts := make([]int, 10)
	for i := range centroids {
		centroids[i] = make([]float64, sample)
	}
	for i := 0; i < train.Len(); i++ {
		c := train.Y[i]
		counts[c]++
		for j := 0; j < sample; j++ {
			centroids[c][j] += float64(train.X.Data()[i*sample+j])
		}
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		best, bestD := -1, math.Inf(1)
		for c := range centroids {
			var d float64
			for j := 0; j < sample; j++ {
				diff := float64(test.X.Data()[i*sample+j]) - centroids[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == test.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-centroid accuracy %.2f < 0.5; classes not separable enough", acc)
	}
}

func TestBatches(t *testing.T) {
	train, _ := Generate(SynthCIFAR10(25, 10, 4))
	batches := train.Batches(8, nil)
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4", len(batches))
	}
	if batches[3].X.Dim(0) != 1 {
		t.Fatalf("last batch size = %d, want 1", batches[3].X.Dim(0))
	}
	// First batch in natural order replicates the first 8 samples.
	sample := train.X.Size() / train.Len()
	for j := 0; j < 8; j++ {
		for p := 0; p < sample; p++ {
			if batches[0].X.Data()[j*sample+p] != train.X.Data()[j*sample+p] {
				t.Fatal("batch content mismatch")
			}
		}
		if batches[0].Y[j] != train.Y[j] {
			t.Fatal("batch label mismatch")
		}
	}
}

func TestSubsetFractionAndBalance(t *testing.T) {
	train, _ := Generate(SynthCIFAR10(200, 10, 5))
	err := quick.Check(func(seed uint64) bool {
		sub := train.Subset(0.25, seed)
		if sub.Len() != 50 {
			return false
		}
		counts := make(map[int]int)
		for _, y := range sub.Y {
			counts[y]++
		}
		for c := 0; c < 10; c++ {
			if counts[c] != 5 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubsetFullFraction(t *testing.T) {
	train, _ := Generate(SynthCIFAR10(40, 10, 6))
	if got := train.Subset(1.0, 1); got != train {
		t.Fatal("fraction 1.0 should return the dataset itself")
	}
}

// centroidAccuracy is a capacity-free reference classifier used to compare
// task hardness across configurations.
func centroidAccuracy(train, test *Dataset) float64 {
	sample := train.X.Size() / train.Len()
	centroids := make([][]float64, train.Classes)
	counts := make([]int, train.Classes)
	for i := range centroids {
		centroids[i] = make([]float64, sample)
	}
	for i := 0; i < train.Len(); i++ {
		c := train.Y[i]
		counts[c]++
		for j := 0; j < sample; j++ {
			centroids[c][j] += float64(train.X.Data()[i*sample+j])
		}
	}
	for c := range centroids {
		if counts[c] == 0 {
			continue
		}
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		best, bestD := -1, math.Inf(1)
		for c := range centroids {
			var d float64
			for j := 0; j < sample; j++ {
				diff := float64(test.X.Data()[i*sample+j]) - centroids[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == test.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(test.Len())
}

func TestSeparationMakesTaskHarder(t *testing.T) {
	base := SynthCIFAR10(200, 100, 77)
	easyTrain, easyTest := Generate(base)

	hard := base
	hard.Separation = 0.2
	hard.NoiseStd = 0.8
	hardTrain, hardTest := Generate(hard)

	easy := centroidAccuracy(easyTrain, easyTest)
	harder := centroidAccuracy(hardTrain, hardTest)
	if harder >= easy {
		t.Fatalf("separation/noise should reduce centroid accuracy: %.2f → %.2f", easy, harder)
	}
}

func TestSeparationStillLearnable(t *testing.T) {
	// With translation jitter disabled, the class signal survives pixel
	// averaging, so even the capacity-free centroid classifier must beat
	// chance by a wide margin: the class information is present in the data
	// (a convnet additionally tolerates the shifts).
	cfg := SynthCIFAR10(200, 100, 78)
	cfg.Separation = 0.35
	cfg.MaxShift = 0
	train, test := Generate(cfg)
	if acc := centroidAccuracy(train, test); acc < 0.3 {
		t.Fatalf("separation 0.35 collapsed the task to %.2f centroid accuracy", acc)
	}
}

func TestSeparationDeterministic(t *testing.T) {
	cfg := SynthCIFAR10(50, 10, 79)
	cfg.Separation = 0.4
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a.X.Data() {
		if a.X.Data()[i] != b.X.Data()[i] {
			t.Fatal("separation generator must stay deterministic")
		}
	}
}

func TestSynthC100Config(t *testing.T) {
	train, _ := Generate(SynthCIFAR100(200, 100, 9))
	if train.Classes != 100 {
		t.Fatalf("classes = %d, want 100", train.Classes)
	}
	seen := make(map[int]bool)
	for _, y := range train.Y {
		seen[y] = true
	}
	if len(seen) != 100 {
		t.Fatalf("only %d distinct classes generated", len(seen))
	}
}

// TestSynthByName: the two task names resolve to their constructors and any
// other name is refused.
func TestSynthByName(t *testing.T) {
	for name, want := range map[string]string{"c10": "SynthC10", "c100": "SynthC100"} {
		mk, ok := SynthByName(name)
		if !ok {
			t.Fatalf("SynthByName(%q) not found", name)
		}
		if cfg := mk(8, 4, 3); cfg.Name != want || cfg.Train != 8 || cfg.Test != 4 || cfg.Seed != 3 {
			t.Fatalf("%s constructor returned %+v", name, cfg)
		}
	}
	if _, ok := SynthByName("imagenet"); ok {
		t.Fatal("unknown task must not resolve")
	}
}
