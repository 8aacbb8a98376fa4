package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"tbnet"
	"tbnet/internal/cliconf"
	"tbnet/internal/report"
)

// runSaveCmd implements `tbnet save`: run the pipeline, deploy the finalized
// model on the selected backend, and persist the deployment artifact — to a
// file (-out) or into a named registry entry (-registry/-name).
func runSaveCmd(args []string, stdout, stderr io.Writer) error {
	fs, c := newFlagSet("save", stderr)
	out := fs.String("out", "", "artifact file to write (exclusive with -registry)")
	regDir := fs.String("registry", "", "model registry directory to save into")
	name := fs.String("name", "", "registry entry name (default the architecture name)")
	int8Flag := fs.Bool("int8", false, "quantize to int8 and save the quantized serving artifact")
	if err := cliconf.ParseFlags(fs, args); err != nil {
		return err
	}
	if (*out == "") == (*regDir == "") {
		return cliconf.Usagef("save: exactly one of -out FILE or -registry DIR is required")
	}
	prec := tbnet.PrecisionF32
	if *int8Flag {
		prec = tbnet.PrecisionInt8
	}
	src, err := c.source(fs, nil, prec, stderr)
	if err != nil {
		return err
	}
	dep := src.hosted[0].Dep

	summary := struct {
		Path        string  `json:"path,omitempty"`
		Registry    string  `json:"registry,omitempty"`
		Name        string  `json:"name,omitempty"`
		SHA256      string  `json:"sha256,omitempty"`
		SizeBytes   int64   `json:"size_bytes,omitempty"`
		Device      string  `json:"device"`
		Precision   string  `json:"precision"`
		TBAcc       float64 `json:"tbnet_acc"`
		SecureBytes int64   `json:"peak_secure_bytes"`
	}{Device: dep.Device.Name(), Precision: string(dep.Precision()),
		TBAcc: src.res.TBAcc, SecureBytes: dep.SecureBytes}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := tbnet.SaveDeployment(f, dep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		info, err := os.Stat(*out)
		if err == nil {
			summary.SizeBytes = info.Size()
		}
		summary.Path = *out
	} else {
		if *name == "" {
			*name = c.arch
		}
		reg, err := tbnet.OpenRegistry(*regDir)
		if err != nil {
			return err
		}
		entry, err := reg.Save(*name, dep)
		if err != nil {
			return err
		}
		summary.Registry, summary.Name = *regDir, *name
		summary.SHA256, summary.SizeBytes = entry.SHA256, entry.SizeBytes
	}

	if c.jsonOut {
		return json.NewEncoder(stdout).Encode(summary)
	}
	where := summary.Path
	if where == "" {
		where = fmt.Sprintf("%s (registry %s, sha256 %s…)", summary.Name, summary.Registry, summary.SHA256[:12])
	}
	fmt.Fprintf(stdout, "saved deployment to %s\n", where)
	fmt.Fprintf(stdout, "  device:        %s\n", summary.Device)
	fmt.Fprintf(stdout, "  precision:     %s\n", summary.Precision)
	fmt.Fprintf(stdout, "  TBNet acc:     %s\n", report.Pct(summary.TBAcc))
	fmt.Fprintf(stdout, "  artifact size: %s\n", report.Bytes(summary.SizeBytes))
	fmt.Fprintf(stdout, "  secure memory: %s\n", report.Bytes(summary.SecureBytes))
	return nil
}

// runLoadCmd implements `tbnet load`: bring a saved deployment back up from
// a file or a registry entry (integrity-checked), run one probe inference,
// and report the placement. With -registry and no -name it lists the store.
func runLoadCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "artifact file to load (exclusive with -registry)")
	regDir := fs.String("registry", "", "model registry directory to load from")
	name := fs.String("name", "", "registry entry name (omit to list the registry)")
	deviceName := fs.String("device", "", "re-target the deployment onto this backend (default: the saved device)")
	jsonOut := fs.Bool("json", false, "machine-readable JSON output")
	if err := cliconf.ParseFlags(fs, args); err != nil {
		return err
	}
	if (*in == "") == (*regDir == "") {
		return cliconf.Usagef("load: exactly one of -in FILE or -registry DIR is required")
	}
	var device tbnet.Device
	if *deviceName != "" {
		d, err := tbnet.DeviceByName(*deviceName)
		if err != nil {
			return cliconf.Usage(err)
		}
		device = d
	}

	// Registry listing mode.
	if *regDir != "" && *name == "" {
		reg, err := tbnet.OpenRegistry(*regDir)
		if err != nil {
			return err
		}
		entries, err := reg.List()
		if err != nil {
			return err
		}
		if *jsonOut {
			return json.NewEncoder(stdout).Encode(entries)
		}
		if len(entries) == 0 {
			fmt.Fprintf(stdout, "registry %s is empty\n", *regDir)
			return nil
		}
		for _, e := range entries {
			prec := e.Precision
			if prec == "" {
				prec = "f32"
			}
			fmt.Fprintf(stdout, "%-20s device=%-12s precision=%-5s shape=%v sha256=%s… %s\n",
				e.Name, e.Device, prec, e.SampleShape, e.SHA256[:12], report.Bytes(e.SizeBytes))
		}
		return nil
	}

	var dep *tbnet.Deployment
	var err error
	if *in != "" {
		// Read whole, so the loader bounds what it allocates by the file.
		var data []byte
		if data, err = os.ReadFile(*in); err == nil {
			dep, err = tbnet.LoadDeploymentOn(bytes.NewReader(data), device)
		}
	} else {
		var reg *tbnet.Registry
		if reg, err = tbnet.OpenRegistry(*regDir); err == nil {
			dep, err = reg.LoadOn(*name, device)
		}
	}
	if err != nil {
		return err
	}
	// One probe inference confirms the restored plan actually serves and
	// meters the modeled single-image latency on the (possibly re-targeted)
	// backend.
	shape := dep.SampleShape()
	shape[0] = 1
	probe := tbnet.NewTensor(shape...)
	if _, err := dep.Infer(probe); err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(stdout).Encode(struct {
			Device      string  `json:"device"`
			Precision   string  `json:"precision"`
			SampleShape []int   `json:"sample_shape"`
			SecureBytes int64   `json:"peak_secure_bytes"`
			LatencySec  float64 `json:"latency_sec"`
		}{dep.Device.Name(), string(dep.Precision()), dep.SampleShape(),
			dep.SecureBytes, dep.Latency()})
	}
	fmt.Fprintf(stdout, "loaded %s deployment on %s: shape %v, %s secure memory, %.6fs modeled single-image latency\n",
		dep.Precision(), dep.Device.Name(), dep.SampleShape(), report.Bytes(dep.SecureBytes), dep.Latency())
	return nil
}
