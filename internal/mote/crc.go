package mote

// CRC16 is CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF, no
// reflection), the frame check sequence low-power radio hardware (IEEE
// 802.15.4) already computes. It guards both the CTCK checkpoint image and
// the CTP2 radio frame (package trace), so both formats share this one
// implementation. It is slicing-by-8: each step folds eight bytes through
// eight independent table lookups, so the loop carries one dependency per
// eight bytes instead of one per byte; the last len%8 bytes go one lookup
// each.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	t := &crc16Table
	for ; len(data) >= 8; data = data[8:] {
		crc = t[7][byte(crc>>8)^data[0]] ^ t[6][byte(crc)^data[1]] ^
			t[5][data[2]] ^ t[4][data[3]] ^ t[3][data[4]] ^
			t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]]
	}
	for _, b := range data {
		crc = crc<<8 ^ t[0][byte(crc>>8)^b]
	}
	return crc
}

// crc16Table[k][b] is the CRC register after shifting byte b, then k zero
// bytes, through the polynomial from a zero register. Row 0 is the
// bytewise table; row k shifts row k-1 one zero byte further.
var crc16Table = func() (t [8][256]uint16) {
	for b := range t[0] {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[0][b] = crc
	}
	for k := 1; k < len(t); k++ {
		for b, prev := range t[k-1] {
			t[k][b] = prev<<8 ^ t[0][prev>>8]
		}
	}
	return t
}()
