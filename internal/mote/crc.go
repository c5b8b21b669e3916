package mote

// CRC16 is CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF, no
// reflection), the frame check sequence low-power radio hardware (IEEE
// 802.15.4) already computes. It guards both the CTCK checkpoint image and
// the CTP2 radio frame (package trace), so both formats share this one
// table-driven implementation: one lookup per byte instead of eight
// data-dependent branches.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}

// crc16Table[b] is the CRC register after shifting byte b through the
// polynomial from a zero register.
var crc16Table = func() (t [256]uint16) {
	for b := range t {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[b] = crc
	}
	return t
}()
