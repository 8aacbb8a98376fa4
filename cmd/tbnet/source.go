package main

import (
	"flag"
	"fmt"
	"io"

	"tbnet"
	"tbnet/internal/cliconf"
	"tbnet/internal/core"
	"tbnet/internal/experiments"
)

// modelSource answers, for every command that serves or reports on a model,
// "which deployments, and what does sample i look like": saved artifacts
// under synthetic noise, or one freshly trained pipeline under its test
// split.
type modelSource struct {
	// hosted are the deployments to serve; hosted[0] is the default model.
	hosted []cliconf.Model
	// sample returns the i-th request input (the split or pool wraps around).
	sample func(i int) *tbnet.Tensor
	// label returns the i-th sample's true class, or -1 where none is known
	// (noise has no labels).
	label func(i int) int
	// res is the pipeline run behind hosted[0]; nil in artifact mode.
	res *experiments.Pipeline
}

// noiseSource is a pool of 256 seeded random-normal single samples of the
// given shape. Saved artifacts and remote daemons ship no dataset, and the
// serving stack's behaviour under load does not depend on input content.
func noiseSource(shape []int, seed uint64) *modelSource {
	shape = append([]int(nil), shape...)
	if len(shape) == 4 {
		shape[0] = 1
	}
	rng := tbnet.NewRNG(seed)
	pool := make([]*tbnet.Tensor, 256)
	for i := range pool {
		x := tbnet.NewTensor(shape...)
		rng.FillNormal(x, 0, 1)
		pool[i] = x
	}
	return &modelSource{
		sample: func(i int) *tbnet.Tensor { return pool[i%len(pool)] },
		label:  func(int) int { return -1 },
	}
}

// source resolves the command's models. With -models set (mf may be nil for
// commands without the flag) it loads the saved artifacts — re-targeted onto
// -device only if the user actually set it, since the flag's "rpi3" default
// must not silently move loaded models — and serves them noise. Otherwise it
// asks the lab for the one train→transfer→prune→finalize pipeline of
// -arch/-dataset and deploys the result on -device at precision p, with the
// test split as the request stream. Everything the flags can get wrong is
// reported, as a usage error, before the (potentially minutes-long) pipeline
// run starts.
func (c *commonFlags) source(fs *flag.FlagSet, mf *cliconf.ModelFlags, p tbnet.Precision, stderr io.Writer) (*modelSource, error) {
	if mf != nil && mf.Models != "" {
		var device tbnet.Device
		var err error
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "device" {
				device, err = c.resolveDevice()
			}
		})
		if err != nil {
			return nil, cliconf.Usage(err)
		}
		hosted, err := mf.Load(device)
		if err != nil {
			return nil, err
		}
		src := noiseSource(hosted[0].Dep.SampleShape(), c.seed)
		src.hosted = hosted
		return src, nil
	}
	lab, device, err := c.lab(stderr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "building %s/%s pipeline at %s scale...\n", c.arch, c.dataset, c.scale)
	res, err := lab.Run(experiments.Combo{Arch: c.arch, Dataset: c.dataset})
	if err != nil {
		return nil, cliconf.Usage(err) // an unknown -arch or -dataset; nothing has trained
	}
	shape := []int{1, 3, 16, 16}
	var dep *tbnet.Deployment
	if p == tbnet.PrecisionInt8 {
		dep, err = tbnet.DeployInt8(res.TB, device, shape)
	} else {
		dep, err = tbnet.Deploy(res.TB, device, shape)
	}
	if err != nil {
		return nil, err
	}
	test := res.Test
	singles := test.Batches(1, nil)
	return &modelSource{
		hosted: []cliconf.Model{{Name: c.arch, Dep: dep}},
		sample: func(i int) *tbnet.Tensor { return singles[i%len(singles)].X },
		label:  func(i int) int { return test.Y[i%test.Len()] },
		res:    res,
	}, nil
}

// lab resolves -scale, -seed, -device and -v into the experiment lab that
// owns the one flow: `tbnet experiment` renders its artifacts and every
// model-serving command asks it for its pipeline, so the same flags mean the
// same trained model in both. The resolved device comes back beside it.
func (c *commonFlags) lab(stderr io.Writer) (*experiments.Lab, tbnet.Device, error) {
	scale, err := core.ScaleByName(c.scale)
	if err != nil {
		return nil, nil, cliconf.Usage(err)
	}
	device, err := c.resolveDevice()
	if err != nil {
		return nil, nil, cliconf.Usage(err)
	}
	cfg := experiments.Config{Scale: scale, Seed: c.seed, Device: device}
	if c.verbose {
		cfg.Log = stderr
	}
	return experiments.NewLab(cfg), device, nil
}
