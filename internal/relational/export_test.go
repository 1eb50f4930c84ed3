package relational

// Equal compares two values of the same type.
func (v Value) Equal(o Value) bool {
	if v.T != o.T || v.Null != o.Null {
		return false
	}
	if v.Null {
		return true
	}
	switch v.T {
	case TInt64:
		return v.I == o.I
	case TFloat64:
		return v.F == o.F
	case TString:
		return v.S == o.S
	case TBytes:
		return string(v.B) == string(o.B)
	case TBool:
		return v.Bool == o.Bool
	}
	return false
}
