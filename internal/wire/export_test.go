package wire

// DecodeStoreResponse parses an encoded StoreResponse.
func DecodeStoreResponse(b []byte) (*StoreResponse, error) {
	m := new(StoreResponse)
	if err := m.DecodeFrom(b); err != nil {
		return nil, err
	}
	return m, nil
}
