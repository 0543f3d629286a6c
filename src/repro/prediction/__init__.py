"""Power/utilization prediction via historical templates.

SmartOClock predicts rack and server power by building *templates* from
the prior week's telemetry (§IV-B): the default is per-day aggregation
("DailyMed": the template value at 9 AM is the median of the prior week's
weekday 9 AM samples), with separate weekday/weekend templates.  The other
strategies of Fig. 15 (FlatMed, FlatMax, Weekly, DailyMax) are implemented
for comparison.
"""
