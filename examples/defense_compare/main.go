// Defense comparison: makes the paper's Sec. 2.3 prior-art discussion
// executable — the same victim deployed under full-TEE execution,
// DarkneTZ-style depth partitioning, ShadowNet-style outsourcing,
// MirrorNet-style companion models, and TBNet, comparing secure-memory
// footprint, REE parameter exposure, and modeled latency.
//
// Run with: go run ./examples/defense_compare
package main

import (
	"context"
	"fmt"
	"log"

	"tbnet"
	"tbnet/internal/defense"
	"tbnet/internal/profile"
)

func main() {
	p, err := tbnet.NewPipeline(
		tbnet.WithArch("vgg"),
		tbnet.WithDataset("c10"),
		tbnet.WithSeed(30),
		tbnet.WithDatasetSize(120, 60),
		tbnet.WithEpochs(6, 6, 1),
		tbnet.WithPruning(0.25, 4),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// Measurement mode: report secure footprints instead of rejecting the
	// strategies that do not fit the RPi3's 16 MiB budget.
	device := tbnet.Unbounded(tbnet.RaspberryPi3())
	shape := []int{1, 3, 16, 16}
	x := tbnet.NewTensor(shape...)
	tbnet.NewRNG(33).FillNormal(x, 0, 1)

	// Every placement labels the same image (each runs the real victim);
	// its latency is its priced single-image run.
	fmt.Printf("%-22s %12s %14s %6s %10s %6s\n", "strategy", "secure KiB", "exposed KiB", "arch?", "latency s", "label")
	for _, s := range []defense.Strategy{
		defense.FullTEE{},
		defense.DarkneTZ{SplitAt: 4},
		defense.ShadowNet{},
		defense.MirrorNet{},
	} {
		pl, err := s.Place(res.Victim, device, shape)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12.2f %14.2f %6v %10.4f %6d\n", s.Name(),
			float64(pl.SecureBytes)/1024, float64(pl.ExposedParamBytes)/1024,
			pl.ExposedArch, pl.Price(), pl.Infer(x.Clone())[0])
	}

	dep, err := tbnet.Deploy(res.TB, device, shape)
	if err != nil {
		log.Fatal(err)
	}
	labels, err := dep.Infer(x.Clone())
	if err != nil {
		log.Fatal(err)
	}
	lat, _ := dep.ModeledLatency(1) // every deployment serves batch 1
	exposed := profile.Profile(res.TB.MR, shape).TotalParamBytes()
	fmt.Printf("%-22s %12.2f %14.2f %6v %10.4f %6d\n", "tbnet",
		float64(dep.SecureBytes)/1024, float64(exposed)/1024,
		false, lat, labels[0])
	fmt.Println("\nnote: tbnet exposes M_R's parameters, but M_R's architecture and")
	fmt.Println("weights are deliberately useless standalone (see examples/attack_eval),")
	fmt.Println("and rollback finalization makes M_R's architecture differ from M_T's.")
}
