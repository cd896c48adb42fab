"""End-to-end and per-layer benchmark for votelab; see README.md."""
