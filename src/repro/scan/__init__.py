"""Internet-scale scanning: population, zmap-style scans, nolisting detection."""
