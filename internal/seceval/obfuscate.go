// Package seceval connects the paper's security argument to the serving
// stack: it captures the attacker-visible observation stream of live
// (multi-tenant, batched) fleet traffic, replays the architecture-inference
// attack of internal/attack against it, prices composable trace-obfuscation
// layers in modeled device seconds, and autotunes defense placements under a
// latency budget — reporting an attack-success-vs-overhead frontier per
// hardware backend.
package seceval

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"tbnet/internal/tee"
)

// Cost is the modeled price of one obfuscation pass over one run's trace,
// in the same currencies tee.Meter charges: extra world switches, extra
// shared-memory transfer bytes, and extra normal-world arithmetic. Each
// layer reports what it spent so the frontier can attribute overhead
// per layer, and Seconds converts the bundle into device time under any
// backend's own cost semantics.
type Cost struct {
	// Switches counts extra REE→TEE world switches (dummy invocations,
	// window-release barriers).
	Switches int
	// TransferBytes counts extra bytes staged through shared memory
	// (padding deltas, dummy payloads).
	TransferBytes int64
	// REEFlops counts extra normal-world arithmetic (payload copying and
	// re-marshalling, charged at 1 FLOP per byte moved).
	REEFlops float64
	// InjectedEvents counts events added to the attacker's view.
	InjectedEvents int
	// PaddedBytes counts bytes added to real payloads (a subset of
	// TransferBytes; dummy payloads do not count).
	PaddedBytes int64
}

// add accumulates o into c.
func (c *Cost) add(o Cost) {
	c.Switches += o.Switches
	c.TransferBytes += o.TransferBytes
	c.REEFlops += o.REEFlops
	c.InjectedEvents += o.InjectedEvents
	c.PaddedBytes += o.PaddedBytes
}

// Seconds converts the cost bundle into modeled seconds on a device: the
// price of a script of its transfer, its REE arithmetic and its switches.
// A tap prices every layer of every run, so a layer's usual handful of
// steps is built on the stack.
func (c Cost) Seconds(d tee.Device) float64 {
	var buf [16]tee.Step
	s := append(tee.Script(buf[:0]), tee.Step{Kind: tee.EvTransfer, World: tee.REE, Bytes: c.TransferBytes},
		tee.Step{Kind: tee.EvREECompute, World: tee.REE, Flops: c.REEFlops})
	for i := 0; i < c.Switches; i++ {
		s = append(s, tee.Step{Kind: tee.EvSMC, World: tee.REE})
	}
	return s.Price(d, 0)
}

// Obfuscator is one trace-obfuscation layer: it rewrites the attacker's
// event view and reports what the rewrite costs. Layers compose in a Chain;
// each must leave the input slice untouched (return a fresh slice when it
// changes anything) so stacked layers and the unobfuscated record both stay
// valid.
type Obfuscator interface {
	// Name identifies the layer in reports and metrics ("pad:1024").
	Name() string
	// Apply rewrites one run's attacker view. rng drives any randomized
	// choices so captures replay deterministically under a fixed seed.
	Apply(view []tee.Event, rng *rand.Rand) ([]tee.Event, Cost)
}

// PadTransfers rounds every shared-memory payload up past the next multiple
// of Quantum bytes: unaligned payloads grow to the next boundary,
// already-aligned payloads gain a full extra quantum, so the true size is
// never exposed — the attack's width division then lands off every real
// channel count. Costs the padding delta in transfer bytes plus one FLOP
// per padded byte for the fill.
type PadTransfers struct {
	// Quantum is the alignment granule in bytes.
	Quantum int64
}

// Name implements Obfuscator.
func (p PadTransfers) Name() string { return fmt.Sprintf("pad:%d", p.Quantum) }

// Apply implements Obfuscator.
func (p PadTransfers) Apply(view []tee.Event, _ *rand.Rand) ([]tee.Event, Cost) {
	if p.Quantum < 1 {
		return view, Cost{}
	}
	out := make([]tee.Event, len(view))
	var c Cost
	for i, e := range view {
		if e.Kind == tee.EvTransfer && e.Bytes > 0 {
			padded := (e.Bytes/p.Quantum + 1) * p.Quantum
			delta := padded - e.Bytes
			c.TransferBytes += delta
			c.PaddedBytes += delta
			c.REEFlops += float64(delta)
			e.Bytes = padded
		}
		out[i] = e
	}
	return out, c
}

// ShuffleWindow buffers the attacker-visible stream and releases it in
// randomly permuted windows of Window events, destroying the event ordering
// the stage-by-stage attack walks. Each window release is modeled as one
// extra world switch (the release barrier runs under the secure monitor so
// the REE cannot observe the true order).
type ShuffleWindow struct {
	// Window is the permutation span in events.
	Window int
}

// Name implements Obfuscator.
func (s ShuffleWindow) Name() string { return fmt.Sprintf("shuffle:%d", s.Window) }

// Apply implements Obfuscator.
func (s ShuffleWindow) Apply(view []tee.Event, rng *rand.Rand) ([]tee.Event, Cost) {
	if s.Window < 2 || len(view) < 2 {
		return view, Cost{}
	}
	out := make([]tee.Event, len(view))
	copy(out, view)
	var c Cost
	for start := 0; start < len(out); start += s.Window {
		end := start + s.Window
		if end > len(out) {
			end = len(out)
		}
		win := out[start:end]
		rng.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
		c.Switches++
	}
	return out, c
}

// InjectDummies issues decoy enclave invocations: after each real transfer,
// with probability Rate, a dummy SMC + transfer pair whose payload size
// mimics one of the sizes already seen this run — indistinguishable from a
// real stage boundary, so the attack's stage walk desynchronizes. Each dummy
// costs one world switch plus its payload's staging bytes.
type InjectDummies struct {
	// Rate is the per-transfer injection probability in [0,1].
	Rate float64
}

// Name implements Obfuscator.
func (d InjectDummies) Name() string { return fmt.Sprintf("dummy:%g", d.Rate) }

// Apply implements Obfuscator.
func (d InjectDummies) Apply(view []tee.Event, rng *rand.Rand) ([]tee.Event, Cost) {
	if d.Rate <= 0 {
		return view, Cost{}
	}
	out := make([]tee.Event, 0, len(view))
	var sizes []int64
	var c Cost
	for _, e := range view {
		out = append(out, e)
		if e.Kind != tee.EvTransfer || e.Bytes <= 0 {
			continue
		}
		sizes = append(sizes, e.Bytes)
		if rng.Float64() >= d.Rate {
			continue
		}
		bytes := sizes[rng.Intn(len(sizes))]
		out = append(out,
			tee.Event{Kind: tee.EvSMC, Label: "dummy"},
			tee.Event{Kind: tee.EvTransfer, Label: "dummy", Bytes: bytes})
		c.Switches++
		c.TransferBytes += bytes
		c.InjectedEvents += 2
	}
	return out, c
}

// Chain composes obfuscation layers in order, attributing cost per layer.
type Chain struct {
	// Layers apply in slice order; each sees the previous layer's output.
	Layers []Obfuscator
}

// Name joins the layer names ("pad:1024+dummy:0.25"); the empty chain is
// "none".
func (c *Chain) Name() string {
	if c == nil || len(c.Layers) == 0 {
		return "none"
	}
	names := make([]string, len(c.Layers))
	for i, l := range c.Layers {
		names[i] = l.Name()
	}
	return strings.Join(names, "+")
}

// Apply runs the view through every layer, returning the rewritten view,
// the total cost, and the per-layer breakdown aligned with Layers.
func (c *Chain) Apply(view []tee.Event, rng *rand.Rand) ([]tee.Event, Cost, []Cost) {
	if c == nil || len(c.Layers) == 0 {
		return view, Cost{}, nil
	}
	perLayer := make([]Cost, len(c.Layers))
	var total Cost
	for i, l := range c.Layers {
		var lc Cost
		view, lc = l.Apply(view, rng)
		perLayer[i] = lc
		total.add(lc)
	}
	return view, total, perLayer
}

// ParseChain parses a comma-separated layer spec — "pad:1024,shuffle:8,
// dummy:0.25" — into a Chain. An empty spec or "none" yields an empty chain.
func ParseChain(spec string) (*Chain, error) {
	ch := &Chain{}
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return ch, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kind, arg, _ := strings.Cut(part, ":")
		switch kind {
		case "pad":
			q, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || q < 1 {
				return nil, fmt.Errorf("seceval: pad quantum %q (want positive bytes)", arg)
			}
			ch.Layers = append(ch.Layers, PadTransfers{Quantum: q})
		case "shuffle":
			w, err := strconv.Atoi(arg)
			if err != nil || w < 2 {
				return nil, fmt.Errorf("seceval: shuffle window %q (want ≥2 events)", arg)
			}
			ch.Layers = append(ch.Layers, ShuffleWindow{Window: w})
		case "dummy":
			r, err := strconv.ParseFloat(arg, 64)
			if err != nil || r < 0 || r > 1 {
				return nil, fmt.Errorf("seceval: dummy rate %q (want [0,1])", arg)
			}
			ch.Layers = append(ch.Layers, InjectDummies{Rate: r})
		default:
			return nil, fmt.Errorf("seceval: unknown obfuscation layer %q (want pad:N, shuffle:N, dummy:R)", part)
		}
	}
	return ch, nil
}
