package core

import "tbnet/internal/zoo"

// Branches exposes a deployment's live M_R and M_T to the external tests.
func Branches(d *Deployment) (mr, mt *zoo.Model) { return d.mr, d.prog.mt }
