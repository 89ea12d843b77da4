"""In-silico evaluation lab for an adaptive basal-bolus insulin advisor.

Virtual T1D/T2D patients, a seven-agent actor-critic advisor adjusting
carbohydrate ratios, correction strength and basal dose from fingerstick
readings, a static advisor baseline, trial scenarios, and the glycaemic
and statistical analytics used to compare the two arms.
"""

__version__ = "0.1.0"
