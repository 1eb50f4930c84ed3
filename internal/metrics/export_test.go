package metrics

// Get returns the histogram for name, or nil.
func (s *Summary) Get(name string) *Histogram { return s.hists[name] }
