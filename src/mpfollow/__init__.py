"""Width-based monocular person following: tracking, re-ID, simulation, evaluation."""
