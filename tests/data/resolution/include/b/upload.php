<?php
echo 'saved';
