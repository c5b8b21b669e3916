package mote

import (
	"fmt"
	"testing"

	"codetomo/internal/isa"
)

// crc16Bitwise is the textbook bit-at-a-time CRC-16/CCITT-FALSE, kept only
// as the oracle for the sliced CRC16.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRC16CheckValue pins the CRC catalogue's check value for
// CRC-16/CCITT-FALSE, plus the empty input (the bare init register).
func TestCRC16CheckValue(t *testing.T) {
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf(`CRC16("123456789") = %#04x, want 0x29B1`, got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Fatalf("CRC16(nil) = %#04x, want 0xFFFF", got)
	}
}

// FuzzCRC16 checks the sliced CRC against the bitwise reference on
// arbitrary input.
func FuzzCRC16(f *testing.F) {
	f.Add([]byte("123456789"))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xFF, 0x80, 0x01})
	f.Add([]byte("slicing-by-8 folds eight bytes a step, then a tail"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("CRC16(%x) = %#04x, bitwise reference %#04x", data, got, want)
		}
	})
}

var sinkCRC uint16

// BenchmarkCRC16 times the CRC over the two bodies it guards: a CTP2 frame
// at the default batching (header plus 32 records, 396 B) and a CTCK image
// of the default RAM with no predictor table.
func BenchmarkCRC16(b *testing.B) {
	for _, n := range []int{12 + 32*12, checkpointHdrSize + 2*isa.DefaultRAMWords} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 31)
		}
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sinkCRC ^= CRC16(data)
			}
		})
	}
}
