from hypothesis import settings

# a step or a small calibration can take longer than hypothesis' default
# 200 ms deadline on a slow machine; each test sets its own max_examples
settings.register_profile("ifpt", deadline=None)
settings.load_profile("ifpt")
