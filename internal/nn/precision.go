package nn

// Precision, Float64 and ActivePrecision are named by benchmark/replay.go;
// delete with the next benchmark PR. Inference has one numeric path,
// float64, and no product code reads these.
type Precision uint32

// Float64 is the only Precision.
const Float64 Precision = 0

// ActivePrecision returns Float64.
func ActivePrecision() Precision { return Float64 }
