package isa

// Default memory limits of the simulated M16 part. The mote's default
// configuration and the static cost analysis both reference these, so a
// program the linter passes as fitting is a program the simulator can run.
const (
	// DefaultRAMWords is the data memory size in 16-bit words. The stack
	// grows down from the top; globals sit at the bottom.
	DefaultRAMWords = 4096
	// DefaultFlashBytes is the program memory size in bytes (Harvard
	// architecture: flash is separate from RAM and byte-accounted via
	// CostModel.Bytes).
	DefaultFlashBytes = 32 * 1024
)

// DefaultTickDiv is the M16 timer prescaler, in cycles per timer tick: the
// tick of a mote configured without one, and so of a tomography model
// built without one.
const DefaultTickDiv = 8

// ADC characteristics of the M16 part. The converter saturates at its
// rails, so a SENSE destination register is architecturally guaranteed to
// hold a value in [0, ADCMaxReading] — the simulator cores, the workload
// generators, and the static value-range analysis all rely on the same
// constant.
const (
	// ADCBits is the converter resolution.
	ADCBits = 10
	// ADCMaxReading is the highest value SENSE can produce (the positive
	// rail of the 10-bit converter).
	ADCMaxReading = 1<<ADCBits - 1
)

// ClampADC saturates a raw sample at the converter rails, exactly as the
// SENSE instruction does.
func ClampADC(v uint16) uint16 {
	if v > ADCMaxReading {
		return ADCMaxReading
	}
	return v
}
