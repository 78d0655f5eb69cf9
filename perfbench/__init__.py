"""Host-wall benchmark of the MithriLog reproduction; see run.py."""
