package nn

import (
	"math"

	"tbnet/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch of
// logits [N, K] with integer labels, returning the loss and the gradient with
// respect to the logits (already divided by N).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	grad := tensor.New(n, k)
	ld, gd := logits.Data(), grad.Data()
	var total float64
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		y := labels[i]
		total += logSum - float64(row[y]-maxv)
		gRow := gd[i*k : (i+1)*k]
		for j, v := range row {
			p := math.Exp(float64(v-maxv)) / sum
			gRow[j] = float32(p) * invN
		}
		gRow[y] -= invN
	}
	return total / float64(n), grad
}
