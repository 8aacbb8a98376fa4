package attack

import (
	"tbnet/internal/tee"
	"tbnet/internal/zoo"
)

// Architecture-inference attack: the paper argues (Sec. 3.5) that without
// the rollback finalization, an attacker can read M_T's architecture
// straight off the REE, because the per-stage transfer payload sizes equal
// M_T's layer widths. This file makes that argument executable.
//
// The attacker observes the one-way channel: every EvTransfer event's byte
// count is visible in normal-world shared memory. Combined with the stolen
// M_R (which reveals each stage's spatial dimensions), the payload sizes
// yield per-stage channel counts. Before rollback those equal M_T's widths
// exactly; after rollback M_R is one pruning iteration wider, so the guess
// systematically overestimates the secure branch.

// ArchGuess is the attacker's estimate of the secure branch's stage widths.
type ArchGuess struct {
	// Widths[i] is the guessed channel count of M_T's stage i output.
	Widths []int
}

// InferArchitecture reconstructs the secure branch's presumed stage widths
// from one inference's attacker-visible trace. view is the attacker's event
// stream (tee.Script.AttackerView), stolenMR the extracted unsecured branch,
// and inShape the inference input shape (the attacker chooses the query, so
// it knows the shape).
func InferArchitecture(view []tee.Event, stolenMR *zoo.Model, inShape []int) ArchGuess {
	shapes := stolenMR.StageShapes(inShape)
	var transfers []int64
	for _, e := range view {
		if e.Kind == tee.EvTransfer {
			transfers = append(transfers, e.Bytes)
		}
	}
	batch := 1
	if len(inShape) > 0 && inShape[0] > 1 {
		batch = inShape[0]
	}
	// The first transfer is the raw input; per-stage feature maps follow.
	var g ArchGuess
	for i := 0; i < len(stolenMR.Stages) && i+1 < len(transfers); i++ {
		if len(shapes[i]) < 4 {
			break
		}
		h, w := shapes[i][2], shapes[i][3]
		if h <= 0 || w <= 0 {
			break
		}
		g.Widths = append(g.Widths, int(transfers[i+1]/4/int64(h*w*batch)))
	}
	return g
}

// InferFromExposure generalizes the attack to arbitrary placement traces
// (the defense strategies of Sec. 2.3): stage widths are read wherever the
// placement lets feature maps touch normal-world memory. An EvREECompute
// payload is an REE-resident feature map — directly readable, its byte count
// divided by the stage's spatial extent yields the channel count. An
// EvTransfer payload crossing shared memory reveals a boundary stage's width
// the same way, except when it merely re-stages the feature map of the
// REE stage just observed (DarkneTZ's boundary crossing), or when it is the
// attacker's own raw query (the attacker chose it, so it recognizes
// inputBytes and skips it).
//
// spatial[i] holds stage i's output (height, width), which the attacker
// derives from the victim's architecture family and its own query shape;
// batch is the per-query sample count the attacker assumes. Under this
// model FullTEE reveals nothing, a DarkneTZ split reveals exactly its
// REE-resident prefix, and ShadowNet/MirrorNet reveal every stage.
func InferFromExposure(view []tee.Event, spatial [][2]int, batch int, inputBytes int64) ArchGuess {
	if batch < 1 {
		batch = 1
	}
	var g ArchGuess
	si := 0
	sawInput := false
	var lastREE int64 = -1
	width := func(bytes int64) (int, bool) {
		if si >= len(spatial) {
			return 0, false
		}
		h, w := spatial[si][0], spatial[si][1]
		if h <= 0 || w <= 0 {
			return 0, false
		}
		return int(bytes / 4 / int64(h*w*batch)), true
	}
	for _, e := range view {
		if si >= len(spatial) {
			break
		}
		switch e.Kind {
		case tee.EvREECompute:
			if e.Bytes <= 0 {
				continue
			}
			c, ok := width(e.Bytes)
			if !ok {
				return g
			}
			g.Widths = append(g.Widths, c)
			lastREE = e.Bytes
			si++
		case tee.EvTransfer:
			if !sawInput && e.Bytes == inputBytes {
				sawInput = true
				continue
			}
			if e.Bytes == lastREE {
				// Boundary re-staging of the feature map already read off the
				// REE — no new information.
				lastREE = -1
				continue
			}
			c, ok := width(e.Bytes)
			if !ok {
				return g
			}
			g.Widths = append(g.Widths, c)
			lastREE = -1
			si++
		}
	}
	return g
}

// StageSpatial returns each stage's output (height, width) for a model of
// the victim's architecture family — the geometry InferFromExposure assumes
// the attacker reconstructs from the family and its own query shape.
func StageSpatial(family *zoo.Model, inShape []int) [][2]int {
	shapes := family.StageShapes(inShape)
	out := make([][2]int, 0, len(family.Stages))
	for i := range family.Stages {
		if i >= len(shapes) || len(shapes[i]) < 4 {
			break
		}
		out = append(out, [2]int{shapes[i][2], shapes[i][3]})
	}
	return out
}

// HitRate compares a guess against the true secure branch, returning the
// fraction of stages whose width the attacker got exactly right.
func (g ArchGuess) HitRate(mt *zoo.Model) float64 {
	if len(g.Widths) == 0 {
		return 0
	}
	hits, total := 0, 0
	for i, s := range mt.Stages {
		if i >= len(g.Widths) {
			break
		}
		total++
		if g.Widths[i] == s.OutChannels() {
			hits++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
