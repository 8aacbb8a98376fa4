package zoo

import (
	"fmt"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
)

// VGGConfig describes a VGG-style plain network: one ConvBlock per width
// entry, with a max pool after each stage whose index appears in Pools.
type VGGConfig struct {
	Name    string
	Widths  []int
	Pools   map[int]bool // stage index → pool 2×2 after the block
	Classes int
	InC     int
}

// VGG18Config returns the reproduction's VGG-style configuration: eight conv
// stages (the paper's "VGG18" scaled down in width for CPU training) with
// four 2× downsamplings, sized for 16×16 inputs.
func VGG18Config(classes int) VGGConfig {
	return VGGConfig{
		Name:    "VGG18-S",
		Widths:  []int{16, 16, 32, 32, 48, 48, 64, 64},
		Pools:   map[int]bool{1: true, 3: true, 5: true, 7: true},
		Classes: classes,
		InC:     3,
	}
}

// TinyVGGConfig is a 3-stage network for fast unit tests.
func TinyVGGConfig(classes int) VGGConfig {
	return VGGConfig{
		Name:    "TinyVGG",
		Widths:  []int{8, 12, 16},
		Pools:   map[int]bool{0: true, 2: true},
		Classes: classes,
		InC:     3,
	}
}

// BuildVGG constructs the staged model for a VGG config.
func BuildVGG(cfg VGGConfig, rng *tensor.RNG) *Model {
	m := &Model{Name: cfg.Name, Arch: "vgg", InC: cfg.InC, Classes: cfg.Classes}
	in := cfg.InC
	for i, w := range cfg.Widths {
		pool := 1
		if cfg.Pools[i] {
			pool = 2
		}
		m.Stages = append(m.Stages, NewConvBlock(fmt.Sprintf("%s.s%d", cfg.Name, i), in, w, 1, pool, rng))
		in = w
	}
	m.Head = NewHead(cfg.Name+".head", in, cfg.Classes, rng)
	return m
}

// ResNetConfig describes a CIFAR-style ResNet: a stem conv followed by three
// stages of BlocksPerStage basic blocks, widths ×1, ×2, ×4.
type ResNetConfig struct {
	Name           string
	BaseWidth      int
	BlocksPerStage int
	Classes        int
	InC            int
}

// ResNet20Config returns the paper's ResNet-20 (3 stages × 3 blocks) at a
// reduced base width for CPU training.
func ResNet20Config(classes int) ResNetConfig {
	return ResNetConfig{Name: "ResNet20-S", BaseWidth: 8, BlocksPerStage: 3, Classes: classes, InC: 3}
}

// TinyResNetConfig is a 3-block network for fast unit tests.
func TinyResNetConfig(classes int) ResNetConfig {
	return ResNetConfig{Name: "TinyResNet", BaseWidth: 6, BlocksPerStage: 1, Classes: classes, InC: 3}
}

// BuildResNet constructs the staged model for a ResNet config. withSkip=false
// produces the plain-chain variant (skip connections removed), which the
// paper uses to initialize M_R from a ResNet victim.
func BuildResNet(cfg ResNetConfig, withSkip bool, rng *tensor.RNG) *Model {
	m := &Model{Name: cfg.Name, Arch: "resnet", InC: cfg.InC, Classes: cfg.Classes}
	stem := NewConvBlock(cfg.Name+".stem", cfg.InC, cfg.BaseWidth, 1, 1, rng)
	stem.OutFixed = true // tied to the identity skips of stage 1
	m.Stages = append(m.Stages, stem)
	in := cfg.BaseWidth
	for stage := 0; stage < 3; stage++ {
		width := cfg.BaseWidth << stage
		for blk := 0; blk < cfg.BlocksPerStage; blk++ {
			stride := 1
			if stage > 0 && blk == 0 {
				stride = 2
			}
			name := fmt.Sprintf("%s.g%db%d", cfg.Name, stage, blk)
			m.Stages = append(m.Stages, NewResBlock(name, in, width, stride, withSkip, rng))
			in = width
		}
	}
	m.Head = NewHead(cfg.Name+".head", in, cfg.Classes, rng)
	return m
}

// StripSkips returns a deep copy of a ResNet model with every skip connection
// removed (ConvBlock stages are cloned unchanged). For VGG models it is an
// ordinary clone.
func StripSkips(m *Model) *Model {
	out := &Model{Name: m.Name + ".plain", Arch: m.Arch, InC: m.InC, Classes: m.Classes, Head: m.Head.clone(nn.CloneOf)}
	out.Stages = make([]Stage, len(m.Stages))
	for i, s := range m.Stages {
		if rb, ok := s.(*ResBlock); ok {
			out.Stages[i] = rb.StripSkip()
		} else {
			out.Stages[i] = s.CloneStage(nn.CloneOf)
		}
	}
	return out
}

// archs is the one architecture-name → builder table: the three evaluated
// families and the tiny variants that keep tests and smoke runs fast.
var archs = map[string]func(classes int, rng *tensor.RNG) *Model{
	"vgg":         func(c int, rng *tensor.RNG) *Model { return BuildVGG(VGG18Config(c), rng) },
	"resnet":      func(c int, rng *tensor.RNG) *Model { return BuildResNet(ResNet20Config(c), true, rng) },
	"mobilenet":   func(c int, rng *tensor.RNG) *Model { return BuildMobileNet(MobileNetSConfig(c), rng) },
	"tiny-vgg":    func(c int, rng *tensor.RNG) *Model { return BuildVGG(TinyVGGConfig(c), rng) },
	"tiny-resnet": func(c int, rng *tensor.RNG) *Model { return BuildResNet(TinyResNetConfig(c), true, rng) },
}

// ArchByName resolves an architecture name ("vgg", "resnet", "mobilenet",
// "tiny-vgg", "tiny-resnet") to the builder of an untrained victim for a
// task with the given class count; ok is false for any other name.
func ArchByName(name string) (build func(classes int, rng *tensor.RNG) *Model, ok bool) {
	build, ok = archs[name]
	return build, ok
}
