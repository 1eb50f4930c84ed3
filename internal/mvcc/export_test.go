package mvcc

// Max returns the largest member (Base if the bitset is empty).
func (s *Snapshot) Max() uint64 {
	for w := len(s.bits) - 1; w >= 0; w-- {
		if s.bits[w] == 0 {
			continue
		}
		for b := 63; b >= 0; b-- {
			if s.bits[w]&(1<<uint(b)) != 0 {
				return s.Base + 1 + uint64(w*64+b)
			}
		}
	}
	return s.Base
}
