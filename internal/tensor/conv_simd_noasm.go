//go:build !amd64

package tensor

// No vector data movement off amd64: the max-pool and col2im run adds
// take their Go loops, which are the bit reference everywhere.

// maxPool2x2Vector reports false: maxPoolPlanes pools every plane.
func maxPool2x2Vector(xd []float32, h, w int, od []float32, p0, p1 int) bool {
	return false
}

// addRunsVector reports false: addRunsGo adds every run.
func addRunsVector(dst, src []float32, rows, n, ds, ss int) bool {
	return false
}
