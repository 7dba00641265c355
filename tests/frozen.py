"""Calibration constants frozen from reference-implementation pilot runs.

Each value was measured once by running the independent implementations in
oracles.py over the standard 200-realization protocol (seed 0, SNR 5 dB,
default amplitudes), then fixed here with a small safety margin. Regenerate
with pilot_thresholds.py if the protocol defaults ever change; do not tune
these to make tests pass.
"""

# Median correlation floors between the recovered oscillatory branch and
# the clean placed burst, per target frequency, over the full sweep.
# Pilot medians: 0.8569 / 0.6322 / 0.7422; floors are medians minus 0.005.
SWEEP_CORR_FLOOR = {
    45.0: 0.851,
    55.0: 0.627,
    85.0: 0.737,
}

# Noise-only maps: largest observed max/median ratio over 200 pure-noise
# realizations. Re-measured after the low-band divisor floor in
# normalize_by_low_band: worst 7.69 (p95 5.78), down from 54.5 before the
# floor. The bound keeps about 10 % headroom above the worst case.
NOISE_MAP_MAX_OVER_MEDIAN = 8.5

# Energy of the difference between first-pass and second-pass oscillatory
# outputs, relative to the first pass, when a clean single-burst channel is
# separated twice. Pilot measurement 1.88 percent.
RESEPARATION_ENERGY_FRACTION = 0.03

# Fraction of paired realizations in which the map of the separated data
# localizes onset no worse than the raw map (or fixes the channel set).
# Pilot: 178 of 200.
PAIRED_WIN_RATE_FLOOR = 0.60
