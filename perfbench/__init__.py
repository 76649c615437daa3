"""End-to-end benchmark of the wavelet-histogram system; see README.md."""
