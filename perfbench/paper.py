"""Figures published in the paper, for the designs in ``configs/``.

Each cell is a 3-decimal rendering, so agreement is checked to within
PUBLISHED_TOL. Rows run over the configs' grids: HR 0.5, 0.6, ..., 1.0
for the randomized TTE designs and ORR 0.075, 0.125, ..., 0.275 for the
single-arm binary designs. ``None`` marks a cell the paper does not state
exactly: at 52 events it rounds the two thresholds to coincide, so only
P(GO) is compared there.
"""

PUBLISHED_TOL = 1e-3

# (p_go, p_nogo, p_inconclusive) per grid point.
TTE_TABLE = {
    "design1": [(0.920, 0.053, 0.027), (0.740, 0.196, 0.064), (0.500, 0.417, 0.083),
                (0.288, 0.636, 0.076), (0.147, 0.800, 0.054), (0.068, 0.900, 0.032)],
    "design2": [(0.887, None, None), (0.711, None, None), (0.500, None, None),
                (0.315, None, None), (0.182, None, None), (0.099, None, None)],
    "design3": [(0.901, 0.099, 0.0), (0.729, 0.270, 0.0), (0.516, 0.484, 0.0),
                (0.325, 0.675, 0.0), (0.186, 0.813, 0.0), (0.100, 0.900, 0.0)],
    "design4": [(0.804, 0.196, 0.0), (0.615, 0.385, 0.0), (0.428, 0.572, 0.0),
                (0.276, 0.724, 0.0), (0.169, 0.831, 0.0), (0.100, 0.900, 0.0)],
    "design5": [(0.902, 0.098, 0.0), (0.768, 0.232, 0.0), (0.602, 0.398, 0.0),
                (0.439, 0.561, 0.0), (0.303, 0.697, 0.0), (0.200, 0.800, 0.0)],
}

BINARY_TABLE = {
    "design1": [(0.036, 0.964, 0.0), (0.195, 0.805, 0.0), (0.451, 0.549, 0.0),
                (0.693, 0.307, 0.0), (0.858, 0.142, 0.0)],
    "design2": [(0.016, 0.950, 0.033), (0.156, 0.709, 0.135), (0.446, 0.380, 0.174),
                (0.731, 0.149, 0.121), (0.902, 0.044, 0.054)],
    "design3": [(0.048, 0.860, 0.092), (0.243, 0.558, 0.199), (0.523, 0.280, 0.197),
                (0.759, 0.113, 0.128), (0.901, 0.038, 0.062)],
}
