"""The four IMDPP factors (Sec. V-A) as pure kernels + model state."""
