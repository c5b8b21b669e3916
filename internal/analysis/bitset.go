package analysis

// Bits is a fixed-width bit vector — the dataflow fact representation the
// solver iterates over. All binary operations assume equal widths.
type Bits []uint64

// NewBits returns an all-zero bit vector able to hold n bits.
func NewBits(n int) Bits {
	return make(Bits, (n+63)/64)
}

// Get reports whether bit i is set.
func (b Bits) Get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// Set sets bit i.
func (b Bits) Set(i int) { b[i/64] |= 1 << (i % 64) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i/64] &^= 1 << (i % 64) }

// Fill sets the first n bits.
func (b Bits) Fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 && len(b) > 0 {
		b[len(b)-1] = (1 << rem) - 1
	}
}

// Clone returns an independent copy.
func (b Bits) Clone() Bits {
	out := make(Bits, len(b))
	copy(out, b)
	return out
}

// CopyFrom overwrites b with o.
func (b Bits) CopyFrom(o Bits) { copy(b, o) }

// UnionWith ors o into b, reporting whether b changed.
func (b Bits) UnionWith(o Bits) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// IntersectWith ands o into b, reporting whether b changed.
func (b Bits) IntersectWith(o Bits) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// AndNotWith removes o's bits from b.
func (b Bits) AndNotWith(o Bits) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// Equal reports whether two vectors hold the same bits.
func (b Bits) Equal(o Bits) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
